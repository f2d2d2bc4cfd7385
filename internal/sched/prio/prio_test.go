package prio

import (
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

// start opens a run of g on two CPUs.
func start(g *runtime.Graph) *Sched {
	s := New()
	s.Init(runtime.NewEnv(platform.CPUOnly(2), g))
	return s
}

func TestPriorityOrder(t *testing.T) {
	g := runtime.NewGraph()
	low := g.Submit(runtime.TaskSpec{Kind: "low", Priority: 1, Cost: []float64{1}})
	hi := g.Submit(runtime.TaskSpec{Kind: "hi", Priority: 9, Cost: []float64{1}})
	mid := g.Submit(runtime.TaskSpec{Kind: "mid", Priority: 5, Cost: []float64{1}})
	s := start(g)
	s.Push(low)
	s.Push(hi)
	s.Push(mid)
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	for _, want := range []*runtime.Task{hi, mid, low} {
		if got := s.Pop(w); got != want {
			t.Fatalf("pop = %v, want %s", got, want.Kind())
		}
	}
	if s.Pop(w) != nil {
		t.Fatal("pop on empty returned a task")
	}
}

func TestEqualPriorityFIFO(t *testing.T) {
	g := runtime.NewGraph()
	a := g.Submit(runtime.TaskSpec{Kind: "a", Priority: 3, Cost: []float64{1}})
	b := g.Submit(runtime.TaskSpec{Kind: "b", Priority: 3, Cost: []float64{1}})
	s := start(g)
	s.Push(a)
	s.Push(b)
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w); got != a {
		t.Errorf("pop = %s, want FIFO head a", got.Kind())
	}
}

func TestSkipsIncompatibleArch(t *testing.T) {
	g := runtime.NewGraph()
	gpuOnly := g.Submit(runtime.TaskSpec{Kind: "g", Priority: 9, Cost: []float64{0, 1}})
	cpu := g.Submit(runtime.TaskSpec{Kind: "c", Priority: 1, Cost: []float64{1}})
	s := start(g)
	s.Push(gpuOnly)
	s.Push(cpu)
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w); got != cpu {
		t.Errorf("pop = %v, want the runnable lower-priority task", got)
	}
	if s.h.Len() != 1 {
		t.Errorf("len = %d, want the GPU task still queued", s.h.Len())
	}
}

func TestEndToEnd(t *testing.T) {
	g := runtime.NewGraph()
	h := g.NewData("x", 8)
	g.Submit(runtime.TaskSpec{Kind: "w", Priority: 5, Cost: []float64{0.1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
	for i := 0; i < 10; i++ {
		g.Submit(runtime.TaskSpec{Kind: "r", Priority: i, Cost: []float64{0.1},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
	}
	res, err := sim.Run(platform.CPUOnly(4), g, New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

// TestPushPopAllocationFree: once the heap and Pop's scan buffer have
// reached their working sizes, scheduling a task allocates nothing — no
// id-to-task map entry, no fresh top-n slice per Pop.
func TestPushPopAllocationFree(t *testing.T) {
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(platform.CPUOnly(2), g))
	const n = 4000
	for i := 0; i < n; i++ {
		g.Submit(runtime.TaskSpec{Kind: "k", Priority: (i * 31) % 97, Cost: []float64{1}})
	}
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	cycle := func() {
		s.env = runtime.NewEnv(platform.CPUOnly(2), g) // a fresh run's claims
		for _, task := range g.Tasks {
			s.Push(task)
		}
		last := 97
		for range g.Tasks {
			got := s.Pop(w)
			if got == nil || got.Priority > last {
				t.Fatalf("pop = %v after priority %d", got, last)
			}
			last = got.Priority
		}
		if s.Pop(w) != nil || s.h.Len() != 0 {
			t.Fatal("scheduler not drained")
		}
	}
	cycle() // warm-up
	if perTask := testing.AllocsPerRun(3, cycle) / n; perTask > 0.02 {
		t.Fatalf("%.3f allocations per task, want 0", perTask)
	}
}
