package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestDecisionLogCanonical(t *testing.T) {
	var l DecisionLog
	l.Decision(Decision{Kind: PushBest, At: 0, Seq: 1, Task: 7, Worker: -1, Mem: -1, Arch: 1, N: 2, A: 0.5, B: 1.25})
	l.Decision(Decision{Kind: PushScore, At: 0, Seq: 1, Task: 7, Worker: -1, Mem: 2, Arch: 1, A: 0.75, B: 0.5})
	l.Decision(Decision{Kind: PopEvict, At: 1.5, Seq: 9, Task: 7, Worker: 3, Mem: 2, Arch: 1, N: 0, A: 2, B: 1})
	l.Decision(Decision{Kind: PopSelect, At: 1.5, Seq: 9, Task: 7, Worker: 4, Mem: 0, Arch: 0, N: 1, A: 4096})

	var b bytes.Buffer
	if err := l.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	want := "push t7 w-1 m-1 a1 n2 0.5 1.25 0 @0 s1\n" +
		"score t7 w-1 m2 a1 n0 0.75 0.5 0 @0 s1\n" +
		"evict t7 w3 m2 a1 n0 2 1 0 @1.5 s9\n" +
		"pop t7 w4 m0 a0 n1 4096 0 0 @1.5 s9\n"
	if b.String() != want {
		t.Fatalf("canonical log:\n got: %q\nwant: %q", b.String(), want)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if l.CountKind(PopEvict) != 1 {
		t.Fatalf("CountKind(PopEvict) = %d, want 1", l.CountKind(PopEvict))
	}
}

func TestDecisionLogSpanArgs(t *testing.T) {
	var l DecisionLog
	l.Decision(Decision{Kind: PushScore, Task: 7, Mem: 2, A: 0.75})
	l.Decision(Decision{Kind: PushScore, Task: 7, Mem: 0, A: 0.25})
	l.Decision(Decision{Kind: PopEvict, Task: 7, Worker: 3, Mem: 0})
	l.Decision(Decision{Kind: PopSelect, Task: 7, Worker: 5, Mem: 2, N: 1, A: 1024})
	l.Decision(Decision{Kind: MapTask, Task: 8, Worker: 1, Mem: 1, A: 3.5})

	args := l.SpanArgs(func(m int) string { return []string{"ram", "gpu0", "gpu1"}[m] })
	a7 := args[7]
	if a7 == nil {
		t.Fatal("no args for task 7")
	}
	if a7["mem_node"] != "gpu1" || a7["gain"] != "0.75" || a7["evict_retries"] != "1" || a7["lssdh2"] != "1024" {
		t.Fatalf("task 7 args = %v", a7)
	}
	a8 := args[8]
	if a8 == nil || a8["ect"] != "3.5" || a8["mem_node"] != "gpu0" {
		t.Fatalf("task 8 args = %v", a8)
	}
}

func TestMetricsExports(t *testing.T) {
	m := NewMetrics()
	m.Counter("b.track", 0, 1, 10)
	m.Counter("a.track", 0.5, 2, 1)
	m.Counter("b.track", 1, 3, 20)
	// Same-instant update collapses to the last value.
	m.Counter("b.track", 1, 3, 25)

	tracks := m.Tracks()
	if len(tracks) != 2 || tracks[0].Name != "a.track" || tracks[1].Name != "b.track" {
		t.Fatalf("tracks = %+v", tracks)
	}
	if n := len(tracks[1].Samples); n != 2 {
		t.Fatalf("b.track samples = %d, want 2 (same-instant collapse)", n)
	}
	if s := m.Samples("b.track"); len(s) != 2 || s[1].Value != 25 {
		t.Fatalf("Samples(b.track) = %v", s)
	}
	if s := m.Samples("a.track"); len(s) != 1 || s[0].Value != 1 {
		t.Fatalf("Samples(a.track) = %v", s)
	}

	var csv bytes.Buffer
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "track,at,seq,value\na.track,0.5,2,1\nb.track,0,1,10\nb.track,1,3,25\n"
	if csv.String() != want {
		t.Fatalf("CSV:\n got: %q\nwant: %q", csv.String(), want)
	}

	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tracks []Track `json:"tracks"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.Tracks) != 2 || doc.Tracks[1].Samples[1].Value != 25 {
		t.Fatalf("JSON round-trip = %+v", doc.Tracks)
	}
}

func TestMultiFansOut(t *testing.T) {
	var l DecisionLog
	m := NewMetrics()
	p := Multi{&l, m}
	p.Decision(Decision{Kind: PopSelect, Task: 1})
	p.Counter("x", 0, 0, 1)
	if l.Len() != 1 {
		t.Fatal("decision not fanned out")
	}
	if len(m.Samples("x")) == 0 {
		t.Fatal("counter not fanned out")
	}
}

// TestConcurrentProbes exercises the consumers under parallel writers,
// as the threaded engine produces them (run with -race).
func TestConcurrentProbes(t *testing.T) {
	var l DecisionLog
	m := NewMetrics()
	p := Multi{&l, m}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.Decision(Decision{Kind: PopSelect, Task: int64(i*100 + j)})
				p.Counter("t", float64(j), 0, float64(j))
			}
		}(i)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("decisions = %d, want 800", l.Len())
	}
	var b bytes.Buffer
	if err := l.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "\n"); n != 800 {
		t.Fatalf("log lines = %d, want 800", n)
	}
}
