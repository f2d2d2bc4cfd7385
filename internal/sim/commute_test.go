package sim

import (
	"math"
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
)

// TestCommuteSerializesInVirtualTime: four 1s commuting updates on one
// handle over four workers must execute back to back (mutual exclusion),
// totalling 4s, while four independent tasks take 1s.
func TestCommuteSerializesInVirtualTime(t *testing.T) {
	m := platform.CPUOnly(4)
	g := runtime.NewGraph()
	h := g.NewData("acc", 8)
	for i := 0; i < 4; i++ {
		g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{1},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.Commute}}})
	}
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-4) > 1e-9 {
		t.Errorf("makespan = %v, want 4 (serialized commuters)", res.Makespan)
	}
	// No pair of COMPUTE intervals overlaps (the span's Wait portion is
	// the stall on the commute lock).
	for i, a := range res.Trace.Spans {
		for _, b := range res.Trace.Spans[i+1:] {
			if a.Start+a.Wait < b.End-1e-12 && b.Start+b.Wait < a.End-1e-12 {
				t.Fatalf("compute intervals overlap: %+v and %+v", a, b)
			}
		}
	}
}

// TestCommuteDistinctHandlesOverlap: commuters on different handles are
// unconstrained.
func TestCommuteDistinctHandlesOverlap(t *testing.T) {
	m := platform.CPUOnly(4)
	g := runtime.NewGraph()
	for i := 0; i < 4; i++ {
		h := g.NewData("x", 8)
		g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{1},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.Commute}}})
	}
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-1) > 1e-9 {
		t.Errorf("makespan = %v, want 1 (independent handles)", res.Makespan)
	}
}

// TestCommuteThenReadOrdering: the reader runs after every commuter and
// sees a consistent replica (write effects applied).
func TestCommuteThenReadOrdering(t *testing.T) {
	m := platform.CPUOnly(2)
	g := runtime.NewGraph()
	h := g.NewData("acc", 8)
	c1 := g.Submit(runtime.TaskSpec{Kind: "c1", Cost: []float64{1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.Commute}}})
	c2 := g.Submit(runtime.TaskSpec{Kind: "c2", Cost: []float64{1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.Commute}}})
	r := g.Submit(runtime.TaskSpec{Kind: "r", Cost: []float64{0.5},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	lastCommuteEnd := math.Max(res.Tasks[c1.ID].EndAt, res.Tasks[c2.ID].EndAt)
	if res.Tasks[r.ID].StartAt < lastCommuteEnd-1e-12 {
		t.Errorf("reader started %v before commuters finished %v", res.Tasks[r.ID].StartAt, lastCommuteEnd)
	}
	// Serialized group: 2s of commuters + 0.5s read.
	if math.Abs(res.Tasks[r.ID].EndAt-2.5) > 1e-9 {
		t.Errorf("reader end = %v, want 2.5", res.Tasks[r.ID].EndAt)
	}
}

// TestCommuteOnGPUInvalidatesReplicas: commute is a write for coherence.
func TestCommuteOnGPUInvalidatesReplicas(t *testing.T) {
	m := tinyMachine(0)
	g := runtime.NewGraph()
	h := g.NewData("x", 1e9)
	gpuOnlyTask(g, "gc", 0.1, runtime.Access{Handle: h, Mode: runtime.Commute})
	g.Submit(runtime.TaskSpec{Kind: "cr", Cost: []float64{0.1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	// The CPU read must fetch the updated value back from the GPU.
	back := 0
	for _, x := range res.Trace.Xfers {
		if x.Src == 1 && x.Dst == 0 {
			back++
		}
	}
	if back == 0 {
		t.Error("no GPU->RAM transfer after a commute update on the GPU")
	}
}
