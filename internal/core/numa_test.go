package core

import (
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

// The paper treats the main RAM as a single memory node "despite the
// NUMA effects but otherwise the approach remains valid" (III-A). These
// tests validate the claim: with one heap per NUMA domain, MultiPrio
// still schedules correctly — duplication across the per-socket heaps,
// claims removing all copies, and locality steering pops towards the
// socket already holding the data.

func numaGraph(g *runtime.Graph, tasks int) {
	for i := 0; i < tasks; i++ {
		h := g.NewData("x", 1<<20)
		g.Submit(runtime.TaskSpec{Kind: "w", Cost: []float64{0.002},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
		g.Submit(runtime.TaskSpec{Kind: "r", Cost: []float64{0.002},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
	}
}

func TestMultiPrioOnNUMA(t *testing.T) {
	m := platform.NUMANode(2, 4, 0)
	g := runtime.NewGraph()
	numaGraph(g, 40)
	res, err := sim.Run(m, g, New(Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		if !res.Tasks[task.ID].Claimed() {
			t.Fatal("task lost on NUMA machine")
		}
	}
	// Sanity against a trivial policy: no pathological slowdown.
	g2 := runtime.NewGraph()
	numaGraph(g2, 40)
	ref, err := sim.Run(m, g2, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > 2*ref.Makespan {
		t.Errorf("multiprio %v vs eager %v on NUMA: pathological", res.Makespan, ref.Makespan)
	}
}

func TestNUMADuplicationAcrossSocketHeaps(t *testing.T) {
	m := platform.NUMANode(2, 2, 0)
	g := runtime.NewGraph()
	task := g.Submit(runtime.TaskSpec{Kind: "t", Cost: []float64{1}})
	s, _ := newSched(m, g, Defaults())
	s.Push(task)
	if s.heaps[0].Len() != 1 || s.heaps[1].Len() != 1 {
		t.Fatal("task not duplicated across the per-socket heaps")
	}
	// A claim through socket 0 clears socket 1's copy too.
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w); got != task {
		t.Fatal("pop failed")
	}
	if s.heaps[1].Len() != 0 {
		t.Fatal("stale duplicate left in the other socket's heap")
	}
}

func TestNUMALocalityPrefersResidentSocket(t *testing.T) {
	m := platform.NUMANode(2, 2, 0)
	g := runtime.NewGraph()
	loc := &mapLocator{g: g, resident: make(map[[2]int64]bool)}

	h0 := g.NewData("on-socket1", 100)
	h1 := g.NewData("on-socket0", 100)
	tRemote := g.Submit(runtime.TaskSpec{Kind: "remote", Cost: []float64{1},
		Accesses: []runtime.Access{{Handle: h0, Mode: runtime.R}}})
	tLocal := g.Submit(runtime.TaskSpec{Kind: "local", Cost: []float64{1},
		Accesses: []runtime.Access{{Handle: h1, Mode: runtime.R}}})
	loc.resident[[2]int64{h0.ID, 1}] = true
	loc.resident[[2]int64{h1.ID, 0}] = true

	s, env := newSched(m, g, Defaults())
	env.Locator = loc
	s.Push(tRemote)
	s.Push(tLocal)
	// A socket-0 worker should pick the task whose data lives on
	// socket 0, not the heap head.
	w0 := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w0); got != tLocal {
		t.Errorf("socket-0 pop = %s, want the socket-local task", got.Kind())
	}
	w1 := runtime.WorkerInfo{ID: 2, Arch: 0, Mem: 1}
	if got := s.Pop(w1); got != tRemote {
		t.Errorf("socket-1 pop = %s, want the remaining task", got.Kind())
	}
}
