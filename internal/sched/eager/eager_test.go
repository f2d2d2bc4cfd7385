package eager

import (
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// env opens a run of g on two CPUs.
func env(g *runtime.Graph) *runtime.Env {
	return runtime.NewEnv(platform.CPUOnly(2), g)
}

func TestFIFOOrder(t *testing.T) {
	s := New()
	g := runtime.NewGraph()
	a := g.Submit(runtime.TaskSpec{Kind: "a", Cost: []float64{1}})
	b := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{1}})
	s.Init(env(g))
	s.Push(a)
	s.Push(b)
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w); got != a {
		t.Errorf("pop = %v, want a (FIFO)", got)
	}
	if got := s.Pop(w); got != b {
		t.Errorf("pop = %v, want b", got)
	}
	if got := s.Pop(w); got != nil {
		t.Errorf("pop on empty = %v", got)
	}
}

func TestSkipsUnrunnable(t *testing.T) {
	s := New()
	g := runtime.NewGraph()
	gpuOnly := g.Submit(runtime.TaskSpec{Kind: "g", Cost: []float64{0, 1}})
	cpu := g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{1}})
	s.Init(env(g))
	s.Push(gpuOnly)
	s.Push(cpu)
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	// The head is not runnable on CPU: eager scans past it.
	if got := s.Pop(w); got != cpu {
		t.Errorf("pop = %v, want the cpu task past the unrunnable head", got)
	}
	gw := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 0}
	if got := s.Pop(gw); got != gpuOnly {
		t.Errorf("gpu pop = %v, want the gpu-only head", got)
	}
}

func TestDropsClaimedTasks(t *testing.T) {
	s := New()
	g := runtime.NewGraph()
	a := g.Submit(runtime.TaskSpec{Kind: "a", Cost: []float64{1}})
	b := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{1}})
	e := env(g)
	s.Init(e)
	s.Push(a)
	s.Push(b)
	e.TryClaim(a) // claimed elsewhere (duplicate bookkeeping)
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w); got != b {
		t.Errorf("pop = %v, want b (claimed head dropped)", got)
	}
}

func TestInitResets(t *testing.T) {
	s := New()
	g := runtime.NewGraph()
	a := g.Submit(runtime.TaskSpec{Kind: "a", Cost: []float64{1}})
	s.Init(env(g))
	s.Push(a)
	s.Init(env(g))
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w); got != nil {
		t.Errorf("pop after re-Init = %v, want nil", got)
	}
}

// TestQueueFollowsLiveEntries: a queue that never drains — each pop
// leaves the newest task behind — stays FIFO in a slice the size of its
// live entries, not of every push since it was last empty. The tasks
// form a chain, so the class starts sized for its one root.
func TestQueueFollowsLiveEntries(t *testing.T) {
	g := runtime.NewGraph()
	h := g.NewData("h", 8)
	for i := 0; i < 1000; i++ {
		g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{1}, Accesses: []runtime.Access{{Handle: h, Mode: runtime.RW}}})
	}
	s := New()
	s.Init(env(g))
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	s.Push(g.Tasks[0])
	for i := 1; i < len(g.Tasks); i++ {
		s.Push(g.Tasks[i])
		if got := s.Pop(w); got != g.Tasks[i-1] {
			t.Fatalf("pop %d = %v, want task %d", i, got, i-1)
		}
	}
	if c := cap(s.classes[0].q); c > 4 {
		t.Errorf("a queue of at most two tasks keeps a slice of %d", c)
	}
}

// TestInitSizesClassesForRoots: the run pushes every root before its
// first Pop, so Init sizes each capability class for the roots of its
// mask, and a class only later tasks open starts empty.
func TestInitSizesClassesForRoots(t *testing.T) {
	g := runtime.NewGraph()
	h := g.NewData("h", 8)
	for i := 0; i < 5; i++ {
		g.Submit(runtime.TaskSpec{Kind: "cpu", Cost: []float64{1}})
	}
	for i := 0; i < 3; i++ {
		g.Submit(runtime.TaskSpec{Kind: "any", Cost: []float64{1, 1}, Accesses: []runtime.Access{{Handle: h, Mode: runtime.RW}}})
	}
	g.Submit(runtime.TaskSpec{Kind: "gpu", Cost: []float64{0, 1}, Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
	s := New()
	s.Init(runtime.NewEnv(platform.SmallSim(platform.Config{}), g))
	if len(s.classes) != 2 || cap(s.classes[0].q) != 5 || cap(s.classes[1].q) != 1 {
		t.Fatalf("classes after Init: %+v, want room for 5 CPU roots and 1 CPU-or-GPU root", s.classes)
	}
	for _, task := range g.Tasks {
		s.Push(task)
	}
	if len(s.classes) != 3 || cap(s.classes[0].q) != 5 {
		t.Errorf("classes after the pushes: %+v, want three, the CPU one not grown", s.classes)
	}
}

func TestName(t *testing.T) {
	if New().Name() != "eager" {
		t.Error("name mismatch")
	}
}
