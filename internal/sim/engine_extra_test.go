package sim

import (
	"strings"
	"testing"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
)

func TestMaxEventsAborts(t *testing.T) {
	m := platform.CPUOnly(2)
	g := runtime.NewGraph()
	for i := 0; i < 100; i++ {
		g.Submit(runtime.TaskSpec{Kind: "t", Cost: []float64{0.001}})
	}
	_, err := Run(m, g, eager.New(), runtime.WithMaxEvents(10))
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("err = %v, want event-budget abort", err)
	}
}

func TestPipelineOneDisablesLookahead(t *testing.T) {
	// With Pipeline 1 the second GPU task's transfer cannot overlap the
	// first task's compute: strictly serial fetch+compute pairs.
	m := tinyMachine(0)
	g := runtime.NewGraph()
	h1 := g.NewData("a", 1e9)
	h2 := g.NewData("b", 1e9)
	gpuOnlyTask(g, "k1", 1, runtime.Access{Handle: h1, Mode: runtime.R})
	gpuOnlyTask(g, "k2", 1, runtime.Access{Handle: h2, Mode: runtime.R})

	serial, err := Run(m, g, eager.New(), runtime.WithPipeline(1))
	if err != nil {
		t.Fatal(err)
	}
	overlapped, err := Run(m, g, eager.New(), runtime.WithPipeline(2))
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.Makespan >= serial.Makespan-0.5 {
		t.Errorf("lookahead did not hide the second transfer: %v vs %v",
			overlapped.Makespan, serial.Makespan)
	}
	if serial.Makespan < 3.9 {
		t.Errorf("serial pipeline makespan = %v, want ≈4 (2x fetch+compute)", serial.Makespan)
	}
}

func TestPrefetchHidesTransfer(t *testing.T) {
	// dmda prefetches at push: the GPU task's data is already moving
	// while the predecessor computes.
	m := tinyMachine(0)
	build := func() *runtime.Graph {
		g := runtime.NewGraph()
		blocker := g.NewData("blk", 8)
		payload := g.NewData("big", 1e9)
		// A 2s CPU task gates the GPU task through a control handle;
		// the big payload is untouched meanwhile, so a prefetch issued
		// at push (when the GPU task becomes ready... it only becomes
		// ready after the blocker) — use two independent GPU tasks
		// instead: the first computes 1.5s while the second's payload
		// prefetches.
		_ = blocker
		small := g.NewData("small", 8)
		gpuOnlyTask(g, "warm", 1.5, runtime.Access{Handle: small, Mode: runtime.R})
		gpuOnlyTask(g, "big", 0.1, runtime.Access{Handle: payload, Mode: runtime.R})
		return g
	}
	withPrefetch, err := Run(m, build(), dmdas.New(dmdas.DMDA))
	if err != nil {
		t.Fatal(err)
	}
	// 1.5s warm + 0.1s big, 1s transfer fully hidden => ≈1.6s.
	if withPrefetch.Makespan > 1.7 {
		t.Errorf("dmda makespan = %v, want ≈1.6 (transfer hidden by prefetch)", withPrefetch.Makespan)
	}
	_, pre, _ := withPrefetch.Trace.TransferredBytes()
	if pre == 0 {
		t.Error("dmda recorded no prefetch traffic")
	}
}

func TestHistoryEstimatorConvergesDuringRun(t *testing.T) {
	m := platform.CPUOnly(2)
	g := runtime.NewGraph()
	for i := 0; i < 50; i++ {
		g.Submit(runtime.TaskSpec{Kind: "k", Footprint: 1, Cost: []float64{0.01}})
	}
	h := perfmodel.NewHistory()
	if _, err := Run(m, g, eager.New(), runtime.WithHistory(h), runtime.WithEstimator(h)); err != nil {
		t.Fatal(err)
	}
	if n := h.Samples("k", platform.ArchCPU, 1); n != 50 {
		t.Errorf("samples = %d, want 50", n)
	}
}

func TestResultEventsPositive(t *testing.T) {
	m := platform.CPUOnly(1)
	g := runtime.NewGraph()
	g.Submit(runtime.TaskSpec{Kind: "t", Cost: []float64{1}})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events <= 0 {
		t.Error("no events counted")
	}
}

// TestStalePrefetchDropped: a prefetch in flight across a write lands
// stale and must be dropped (the reader refetches the new value).
func TestStalePrefetchDropped(t *testing.T) {
	m := tinyMachine(0)
	g := runtime.NewGraph()
	h := g.NewData("x", 1e9) // 1s transfer
	// CPU writes h while a GPU prefetch (issued for a task that reads
	// the OLD... construct: gpu reader first (fetch starts), cpu writer
	// RW (invalidates mid-flight is impossible due to deps)...
	// Simplest reachable case: gpu task reads h (transfer ~1s), then a
	// CPU RW rewrites h, then another GPU read must move fresh bytes.
	gpuOnlyTask(g, "g1", 0.1, runtime.Access{Handle: h, Mode: runtime.R})
	g.Submit(runtime.TaskSpec{Kind: "cw", Cost: []float64{0.1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.RW}}})
	gpuOnlyTask(g, "g2", 0.1, runtime.Access{Handle: h, Mode: runtime.R})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	toGPU := 0
	for _, x := range res.Trace.Xfers {
		if x.Dst == 1 {
			toGPU++
		}
	}
	if toGPU < 2 {
		t.Errorf("RAM->GPU transfers = %d, want 2 (stale replica unusable)", toGPU)
	}
}
