package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"multiprio/internal/obs"
	"multiprio/internal/platform"
)

func sampleTrace() *Trace {
	m := platform.IntelV100(platform.Config{})
	tr := New(m)
	tr.AddSpan(Span{Worker: 0, TaskID: 1, Kind: "potrf", Start: 0, End: 0.5})
	tr.AddSpan(Span{Worker: 30, TaskID: 2, Kind: "gemm", Start: 0.1, End: 0.9, Wait: 0.2})
	tr.Xfers = append(tr.Xfers, Transfer{Handle: 3, Src: 0, Dst: 1, Bytes: 1024, Start: 0, End: 0.1})
	tr.Xfers = append(tr.Xfers, Transfer{Handle: 4, Src: 1, Dst: 0, Bytes: 2048, Start: 0.2, End: 0.3, Writeback: true})
	return tr
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var tasks, meta, xfers int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			if ev["cat"] == "task" {
				tasks++
				if ev["dur"].(float64) <= 0 {
					t.Error("task event with non-positive duration")
				}
			} else {
				xfers++
			}
		}
	}
	if tasks != 2 {
		t.Errorf("task events = %d, want 2", tasks)
	}
	if xfers != 2 {
		t.Errorf("transfer events = %d, want 2", xfers)
	}
	if meta < 32 {
		t.Errorf("metadata events = %d, want at least one per unit", meta)
	}
	if !strings.Contains(buf.String(), "writeback") {
		t.Error("writeback category missing")
	}
}

// TestWriteChromeTraceWith validates the enriched export end to end:
// the JSON parses, process/thread metadata group the rows, span args
// from the scheduler context reach the task events, and every counter
// sample recorded through obs.Metrics appears as a "C" event with the
// same track, time, and value.
func TestWriteChromeTraceWith(t *testing.T) {
	rec := obs.NewMetrics()
	rec.Counter("multiprio.ready[RAM]", 0, 1, 3)
	rec.Counter("multiprio.ready[RAM]", 0.2, 5, 2)
	rec.Counter("mem.used[GPU0]", 0.1, 3, 4096)

	var buf bytes.Buffer
	err := sampleTrace().WriteChromeTraceWith(&buf, ChromeOptions{
		SpanArgs: func(taskID int64) map[string]string {
			if taskID == 2 {
				return map[string]string{"gain": "1.5", "mem_node": "GPU0"}
			}
			return nil
		},
		Counters: rec.Tracks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}

	procNames := map[float64]string{}
	threadSort := map[float64]float64{}
	counters := map[string][][2]float64{} // track -> (ts, value)
	var sawSpanArgs bool
	for _, ev := range doc.TraceEvents {
		ts := ev["ts"].(float64)
		if ts < 0 {
			t.Errorf("event %q has negative ts %v", ev["name"], ts)
		}
		if d, ok := ev["dur"]; ok && d.(float64) < 0 {
			t.Errorf("event %q has negative dur %v", ev["name"], d)
		}
		switch ev["ph"] {
		case "M":
			args := ev["args"].(map[string]any)
			switch ev["name"] {
			case "process_name":
				procNames[ev["pid"].(float64)] = args["name"].(string)
			case "thread_sort_index":
				if ev["pid"].(float64) == 0 {
					threadSort[ev["tid"].(float64)] = args["sort_index"].(float64)
				}
			}
		case "X":
			if ev["cat"] == "task" {
				args := ev["args"].(map[string]any)
				if args["task"] == "2" {
					if args["gain"] != "1.5" || args["mem_node"] != "GPU0" {
						t.Errorf("span args not attached: %v", args)
					}
					sawSpanArgs = true
				}
			}
		case "C":
			if ev["pid"].(float64) != 2 {
				t.Errorf("counter event on pid %v, want 2", ev["pid"])
			}
			v := ev["args"].(map[string]any)["value"].(float64)
			name := ev["name"].(string)
			counters[name] = append(counters[name], [2]float64{ts, v})
		}
	}

	for pid, want := range map[float64]string{0: "workers", 1: "links", 2: "counters"} {
		if procNames[pid] != want {
			t.Errorf("process_name[%v] = %q, want %q", pid, procNames[pid], want)
		}
	}
	if !sawSpanArgs {
		t.Error("no task event carried the injected span args")
	}

	// Every recorder sample must round-trip (ts is seconds×1e6).
	for _, trk := range rec.Tracks() {
		got := counters[trk.Name]
		if len(got) != len(trk.Samples) {
			t.Fatalf("track %s: %d counter events, want %d", trk.Name, len(got), len(trk.Samples))
		}
		for i, s := range trk.Samples {
			if got[i][0] != s.At*1e6 || got[i][1] != s.Value {
				t.Errorf("track %s sample %d = %v, want (%v, %v)", trk.Name, i, got[i], s.At*1e6, s.Value)
			}
		}
	}

	// Worker rows must be sorted by (arch, mem, unit): on IntelV100 the
	// CPU workers (low unit IDs, arch 0) must all sort before the GPU
	// streams, and sort indices must be unique.
	m := platform.IntelV100(platform.Config{})
	if len(threadSort) != len(m.Units) {
		t.Fatalf("thread_sort_index rows = %d, want %d", len(threadSort), len(m.Units))
	}
	seen := map[float64]bool{}
	for tid, idx := range threadSort {
		if seen[idx] {
			t.Errorf("duplicate sort_index %v", idx)
		}
		seen[idx] = true
		u := m.Units[int(tid)]
		for tid2, idx2 := range threadSort {
			u2 := m.Units[int(tid2)]
			if u.Arch < u2.Arch && idx >= idx2 {
				t.Errorf("unit %d (arch %d) sorted after unit %d (arch %d)", int(tid), u.Arch, int(tid2), u2.Arch)
			}
		}
	}
}

// TestWriteChromeTraceMonotone checks per-row ordering invariants on a
// real-ish trace: events are emitted in span order, and within one
// worker row spans must not overlap backwards in time.
func TestWriteChromeTraceMonotone(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	tr := New(m)
	tr.AddSpan(Span{Worker: 1, TaskID: 1, Kind: "a", Start: 0, End: 1})
	tr.AddSpan(Span{Worker: 1, TaskID: 2, Kind: "b", Start: 1, End: 2.5})
	tr.AddSpan(Span{Worker: 1, TaskID: 3, Kind: "c", Start: 2.5, End: 3})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	lastEnd := map[float64]float64{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" || ev["cat"] != "task" {
			continue
		}
		tid := ev["tid"].(float64)
		ts := ev["ts"].(float64)
		dur := ev["dur"].(float64)
		if dur < 0 {
			t.Errorf("negative dur on tid %v", tid)
		}
		if ts < lastEnd[tid] {
			t.Errorf("tid %v: span at ts=%v starts before previous end %v", tid, ts, lastEnd[tid])
		}
		lastEnd[tid] = ts + dur
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2 spans
		t.Fatalf("rows = %d, want 3", len(recs))
	}
	if recs[0][0] != "worker" || recs[1][2] != "potrf" {
		t.Errorf("unexpected CSV content: %v", recs)
	}
	if recs[2][1] != "gpu" {
		t.Errorf("worker 30 should be a GPU unit, got arch %q", recs[2][1])
	}
}
