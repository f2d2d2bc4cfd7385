package sim

import (
	"bytes"
	"strings"
	"testing"

	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
)

// streamTestGraph builds a two-wave workload: independent roots plus a
// dependent second layer, so arrival gating interacts with dependency
// release on both paths.
func streamTestGraph() *runtime.Graph {
	g := runtime.NewGraph()
	hs := make([]*runtime.DataHandle, 4)
	for i := range hs {
		hs[i] = g.NewData("h", 1024)
		g.Submit(runtime.TaskSpec{Kind: "root", Cost: []float64{0.01, 0.002},
			Accesses: []runtime.Access{{Handle: hs[i], Mode: runtime.W}}})
	}
	for i := range hs {
		g.Submit(runtime.TaskSpec{Kind: "leaf", Cost: []float64{0.01, 0.002},
			Accesses: []runtime.Access{{Handle: hs[i], Mode: runtime.R}}})
	}
	return g
}

// TestSimArrivalGating checks that no task starts before its arrival
// instant, including successors whose dependencies complete earlier.
func TestSimArrivalGating(t *testing.T) {
	g := streamTestGraph()
	arrivals := make([]float64, len(g.Tasks))
	for i := range arrivals {
		arrivals[i] = 0.05 * float64(i)
	}
	res, err := Run(tinyMachine(64*1024*1024), g, eager.New(), runtime.WithArrivals(arrivals))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		if res.Tasks[task.ID].StartAt < arrivals[task.ID] {
			t.Errorf("task %d started at %g before its arrival at %g", task.ID, res.Tasks[task.ID].StartAt, arrivals[task.ID])
		}
	}
	if res.Makespan < arrivals[len(arrivals)-1] {
		t.Errorf("makespan %g precedes the last arrival %g", res.Makespan, arrivals[len(arrivals)-1])
	}
}

// TestSimZeroArrivalsByteIdentical checks the seq-neutrality of the
// arrival path: an explicit all-zero arrival plan must produce exactly
// the batch-mode trace, byte for byte, because zero arrivals take the
// inline push path with no extra events.
func TestSimZeroArrivalsByteIdentical(t *testing.T) {
	run := func(arrivals []float64) []byte {
		g := streamTestGraph()
		res, err := Run(tinyMachine(64*1024*1024), g, eager.New(),
			runtime.WithMemEvents(),
			runtime.WithArrivals(arrivals))
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace.Canonical()
	}
	batch := run(nil)
	streamed := run(make([]float64, len(streamTestGraph().Tasks)))
	if !bytes.Equal(batch, streamed) {
		t.Fatalf("all-zero arrival plan diverged from batch mode (%d vs %d bytes)", len(batch), len(streamed))
	}
}

// TestSimArrivalValidation checks plan validation: wrong coverage and
// negative times are rejected before the run starts.
func TestSimArrivalValidation(t *testing.T) {
	g := streamTestGraph()
	_, err := Run(tinyMachine(64*1024*1024), g, eager.New(), runtime.WithArrivals([]float64{0}))
	if err == nil || !strings.Contains(err.Error(), "arrival plan covers") {
		t.Errorf("length mismatch accepted: %v", err)
	}
	bad := make([]float64, len(g.Tasks))
	bad[2] = -1
	g2 := streamTestGraph()
	_, err = Run(tinyMachine(64*1024*1024), g2, eager.New(), runtime.WithArrivals(bad))
	if err == nil || !strings.Contains(err.Error(), "invalid arrival time") {
		t.Errorf("negative arrival accepted: %v", err)
	}
}
