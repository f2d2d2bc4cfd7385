package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"multiprio/internal/obs"
)

// chromeEvent is one entry of the Chrome trace-event format (the
// "trace_event" JSON consumed by chrome://tracing and Perfetto), the
// modern equivalent of the Paje traces StarVZ renders.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Process IDs of the Chrome trace rows: workers (task spans), links
// (transfers), counters (Perfetto counter tracks).
const (
	chromePIDWorkers  = 0
	chromePIDLinks    = 1
	chromePIDCounters = 2
)

// ChromeOptions extends WriteChromeTrace with scheduler-internals
// context from the observability layer (internal/obs).
type ChromeOptions struct {
	// SpanArgs, when non-nil, returns extra args for the span of the
	// given task — gain score, memory node, evict-retry count — so
	// Perfetto task tooltips explain placement. Nil entries are fine.
	SpanArgs func(taskID int64) map[string]string
	// Counters are obs.Metrics tracks, merged sample by sample as
	// counter events ("C" phase) under a dedicated "counters" process
	// row, where Perfetto plots each track on its own. Tracks come in
	// the order given (obs.Metrics.Tracks sorts them by name).
	Counters []*obs.Track
}

// WriteChromeTrace renders the trace in Chrome trace-event JSON: one
// complete ("X") event per task span on its worker row, and one per
// transfer on a per-link row. Load the output in chrome://tracing or
// https://ui.perfetto.dev to get the paper's Fig. 4-style Gantt view.
func (tr *Trace) WriteChromeTrace(w io.Writer) error {
	return tr.WriteChromeTraceWith(w, ChromeOptions{})
}

// WriteChromeTraceWith is WriteChromeTrace plus scheduler-context span
// args and Perfetto counter tracks.
func (tr *Trace) WriteChromeTraceWith(w io.Writer, o ChromeOptions) error {
	events := make([]chromeEvent, 0, len(tr.Spans)+len(tr.Xfers)+len(o.Counters)+8)
	for pid, name := range []string{
		chromePIDWorkers:  "workers",
		chromePIDLinks:    "links",
		chromePIDCounters: "counters",
	} {
		if pid == chromePIDLinks && len(tr.Xfers) == 0 {
			continue
		}
		if pid == chromePIDCounters && len(o.Counters) == 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		}, chromeEvent{
			Name: "process_sort_index", Ph: "M", PID: pid,
			Args: map[string]any{"sort_index": pid},
		})
	}
	// Worker rows are named and sorted by (architecture, memory node,
	// unit), so Perfetto groups the CPU workers together and each GPU's
	// stream workers next to each other instead of raw unit order.
	order := make([]int, len(tr.Machine.Units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua, ub := tr.Machine.Units[order[a]], tr.Machine.Units[order[b]]
		if ua.Arch != ub.Arch {
			return ua.Arch < ub.Arch
		}
		if ua.Mem != ub.Mem {
			return ua.Mem < ub.Mem
		}
		return order[a] < order[b]
	})
	for rank, u := range order {
		unit := tr.Machine.Units[u]
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePIDWorkers, TID: u,
			Args: map[string]any{"name": fmt.Sprintf("%s (%s, %s)",
				unit.Name, tr.Machine.ArchName(unit.Arch), tr.Machine.Mems[unit.Mem].Name)},
		}, chromeEvent{
			Name: "thread_sort_index", Ph: "M", PID: chromePIDWorkers, TID: u,
			Args: map[string]any{"sort_index": rank},
		})
	}
	for _, s := range tr.Spans {
		ev := chromeEvent{
			Name: s.Kind, Cat: "task", Ph: "X",
			TS: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
			PID: chromePIDWorkers, TID: int(s.Worker),
			Args: map[string]any{"task": strconv.FormatInt(s.TaskID, 10)},
		}
		if s.Wait > 0 {
			ev.Args["transfer_wait_us"] = strconv.FormatFloat(s.Wait*1e6, 'f', 1, 64)
		}
		switch {
		case s.Failed:
			ev.Name = s.Kind + " (failed)"
			ev.Args["failed"] = "true"
		case s.Cancelled:
			ev.Name = s.Kind + " (cancelled)"
			ev.Args["cancelled"] = "true"
		}
		if o.SpanArgs != nil {
			for k, v := range o.SpanArgs(s.TaskID) {
				ev.Args[k] = v
			}
		}
		events = append(events, ev)
	}
	linkRow := len(tr.Machine.Units)
	linkTIDs := map[[2]int]int{}
	for _, x := range tr.Xfers {
		key := [2]int{int(x.Src), int(x.Dst)}
		tid, ok := linkTIDs[key]
		if !ok {
			tid = linkRow
			linkRow++
			linkTIDs[key] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: chromePIDLinks, TID: tid,
				Args: map[string]any{"name": fmt.Sprintf("link %s->%s",
					tr.Machine.Mems[x.Src].Name, tr.Machine.Mems[x.Dst].Name)},
			})
		}
		cat := "fetch"
		switch {
		case x.Writeback:
			cat = "writeback"
		case x.Prefetch:
			cat = "prefetch"
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("h%d (%d B)", x.Handle, x.Bytes),
			Cat:  cat, Ph: "X",
			TS: x.Start * 1e6, Dur: (x.End - x.Start) * 1e6,
			PID: chromePIDLinks, TID: tid,
		})
	}
	for _, c := range o.Counters {
		for _, s := range c.Samples {
			events = append(events, chromeEvent{
				Name: c.Name, Cat: "counter", Ph: "C",
				TS: s.At * 1e6, PID: chromePIDCounters,
				Args: map[string]any{"value": s.Value},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// WriteCSV renders the task spans as a flat CSV (worker, arch, kind,
// task, start, end, wait) for analysis in R/pandas, the role StarVZ's
// parsed Paje data plays in the paper's workflow.
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"worker", "arch", "kind", "task", "start", "end", "wait"}); err != nil {
		return err
	}
	for _, s := range tr.Spans {
		unit := tr.Machine.Units[s.Worker]
		rec := []string{
			unit.Name,
			tr.Machine.ArchName(unit.Arch),
			s.Kind,
			strconv.FormatInt(s.TaskID, 10),
			strconv.FormatFloat(s.Start, 'g', -1, 64),
			strconv.FormatFloat(s.End, 'g', -1, 64),
			strconv.FormatFloat(s.Wait, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
