package oracle

import (
	"fmt"
	"strings"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/trace"
)

func testMachine(t *testing.T) *platform.Machine {
	t.Helper()
	m, err := platform.NewHeteroNode("oracle-test", 4, 10, 1, 100, 64*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testGraph builds a small DAG exercising every access mode: a writer,
// a read fan-out, a commute group, and a final reader joining it all.
func testGraph() *runtime.Graph {
	g := runtime.NewGraph()
	src := g.NewData("src", platform.MiB)
	acc := g.NewData("acc", platform.MiB)
	out := g.NewData("out", 8)
	g.Submit(runtime.TaskSpec{Kind: "init", Cost: []float64{0.002, 0.001},
		Accesses: []runtime.Access{{Handle: src, Mode: runtime.W}}})
	for i := 0; i < 4; i++ {
		g.Submit(runtime.TaskSpec{Kind: "update", Cost: []float64{0.004, 0.001},
			Accesses: []runtime.Access{
				{Handle: src, Mode: runtime.R},
				{Handle: acc, Mode: runtime.Commute},
			}})
	}
	g.Submit(runtime.TaskSpec{Kind: "reduce", Cost: []float64{0.002, 0.002},
		Accesses: []runtime.Access{
			{Handle: acc, Mode: runtime.R},
			{Handle: out, Mode: runtime.W},
		}})
	return g
}

// runSim executes the test graph in the simulator with memory events on.
func runSim(t *testing.T) (*runtime.Graph, *sim.Result) {
	t.Helper()
	g := testGraph()
	res, err := sim.Run(testMachine(t), g, core.New(core.Defaults()),
		runtime.WithMemEvents())
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestCheckPassesOnSimulatedRun(t *testing.T) {
	g, res := runSim(t)
	if len(res.Trace.MemEvents) == 0 {
		t.Fatal("expected memory events to be collected")
	}
	if err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
}

func TestCheckPassesOnThreadedRun(t *testing.T) {
	m := platform.CPUOnly(4)
	g := testGraph()
	eng, err := runtime.NewThreadedEngine(m, core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(g, res.Trace, Options{}); err != nil {
		t.Fatalf("valid threaded run rejected: %v", err)
	}
}

// expectViolation checks that tampering with a valid run is detected
// and that the report names the right invariant.
func expectViolation(t *testing.T, name, want string, tamper func(g *runtime.Graph, res *sim.Result)) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		g, res := runSim(t)
		tamper(g, res)
		err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes})
		if err == nil {
			t.Fatalf("tampered run accepted")
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("violation report %q does not mention %q", err, want)
		}
	})
}

func TestCheckDetectsTampering(t *testing.T) {
	expectViolation(t, "lost task", "never executed", func(g *runtime.Graph, res *sim.Result) {
		res.Trace.Spans = res.Trace.Spans[:len(res.Trace.Spans)-1]
	})
	expectViolation(t, "double execution", "executed successfully twice", func(g *runtime.Graph, res *sim.Result) {
		res.Trace.Spans = append(res.Trace.Spans, res.Trace.Spans[0])
	})
	expectViolation(t, "unknown worker", "unknown worker", func(g *runtime.Graph, res *sim.Result) {
		res.Trace.Spans[0].Worker = 99
	})
	expectViolation(t, "dependency violation", "dependency violated", func(g *runtime.Graph, res *sim.Result) {
		// The reduce task depends on every commuter; move its span to
		// time 0.
		last := g.Tasks[len(g.Tasks)-1]
		for i := range res.Trace.Spans {
			s := &res.Trace.Spans[i]
			if s.TaskID == last.ID {
				w := s.End - s.Start
				s.Start, s.End, s.Wait = 0, w, 0
			}
		}
	})
	expectViolation(t, "commute overlap", "commute exclusivity", func(g *runtime.Graph, res *sim.Result) {
		// Slide one commuter's kernel on top of another's.
		var first *trace.Span
		for i := range res.Trace.Spans {
			s := &res.Trace.Spans[i]
			if s.Kind != "update" {
				continue
			}
			if first == nil {
				first = s
				continue
			}
			w := s.End - s.Start
			s.Start, s.End, s.Wait = first.Start, first.Start+w, 0
			break
		}
	})
	expectViolation(t, "wrong makespan", "makespan", func(g *runtime.Graph, res *sim.Result) {
		res.Trace.Makespan *= 2
	})
	expectViolation(t, "stale read", "version", func(g *runtime.Graph, res *sim.Result) {
		for i := range res.Trace.MemEvents {
			e := &res.Trace.MemEvents[i]
			if e.Kind == trace.MemValid && e.Version > 0 {
				e.Version--
				break
			}
		}
	})
	expectViolation(t, "phantom allocation", "allocated twice", func(g *runtime.Graph, res *sim.Result) {
		for i := range res.Trace.MemEvents {
			e := &res.Trace.MemEvents[i]
			if e.Kind == trace.MemAlloc {
				dup := *e
				dup.Seq = e.Seq + 1000000
				res.Trace.MemEvents = append(res.Trace.MemEvents, dup)
				break
			}
		}
	})
}

func TestCheckDetectsCapacityOverrun(t *testing.T) {
	// A machine whose GPU memory cannot hold the working set, with the
	// engine's own overflow report withheld from the oracle: the replay
	// must flag the overrun; passing the report must silence it.
	m, err := platform.NewHeteroNode("tiny-gpu", 4, 10, 1, 100, 2*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := runtime.NewGraph()
	hs := make([]*runtime.DataHandle, 6)
	for i := range hs {
		hs[i] = g.NewData("big", platform.MiB)
	}
	var accs []runtime.Access
	for _, h := range hs {
		accs = append(accs, runtime.Access{Handle: h, Mode: runtime.RW})
	}
	g.Submit(runtime.TaskSpec{Kind: "hog", Cost: []float64{0.01, 0.001}, Accesses: accs})
	res, err := sim.Run(m, g, core.New(core.Defaults()), runtime.WithMemEvents())
	if err != nil {
		t.Fatal(err)
	}
	if res.OverflowBytes[1] == 0 {
		t.Fatal("expected the 2 MiB GPU node to overflow under a 6 MiB working set")
	}
	err = Check(g, res.Trace, Options{})
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("capacity overrun not flagged: %v", err)
	}
	if err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Fatalf("reported overflow not tolerated: %v", err)
	}
}

// TestFinalVersionViolationsInHandleOrder: with the write completions of
// a run withheld, every written handle ends at the wrong version. The
// report names them in handle order — it ranged over a map before, so
// which 25 of the 40 made it under the report's cap, and which came
// first, changed from run to run.
func TestFinalVersionViolationsInHandleOrder(t *testing.T) {
	g := runtime.NewGraph()
	for i := 0; i < 40; i++ {
		h := g.NewData("h", 1024)
		g.Submit(runtime.TaskSpec{Kind: "w", Cost: []float64{0.001, 0.001},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
	}
	res, err := sim.Run(testMachine(t), g, core.New(core.Defaults()), runtime.WithMemEvents())
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	kept := res.Trace.MemEvents[:0]
	for _, e := range res.Trace.MemEvents {
		if e.Kind != trace.MemValid || e.Version == 0 {
			kept = append(kept, e)
		}
	}
	res.Trace.MemEvents = kept
	err = Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes})
	if err == nil {
		t.Fatal("run without write completions accepted")
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != maxViolations+1 {
		t.Fatalf("%d violations reported, want the first %d and the suppression note:\n%v", len(lines), maxViolations, err)
	}
	for i, line := range lines[:maxViolations] {
		if want := fmt.Sprintf("oracle: handle %d ends at version 0 after 1 write accesses executed", i); line != want {
			t.Fatalf("violation %d is %q, want %q", i, line, want)
		}
	}
}

// TestReplayRejectsOutOfRangeRecords: a memory event naming a handle or a
// node the run does not have is a violation, not an index panic in the
// replay's flat tables.
func TestReplayRejectsOutOfRangeRecords(t *testing.T) {
	for name, tamper := range map[string]func(e *trace.MemEvent){
		"handle past the table": func(e *trace.MemEvent) { e.Handle = 1 << 40 },
		"negative handle":       func(e *trace.MemEvent) { e.Handle = -1 },
		"node past the table":   func(e *trace.MemEvent) { e.Mem = 99 },
		"negative node":         func(e *trace.MemEvent) { e.Mem = -1 },
	} {
		want := "unknown handle"
		if strings.Contains(name, "node") {
			want = "unknown node"
		}
		expectViolation(t, name, want, func(g *runtime.Graph, res *sim.Result) { tamper(&res.Trace.MemEvents[0]) })
	}
}
