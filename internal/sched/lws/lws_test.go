package lws

import (
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

func machine() *platform.Machine { return platform.CPUOnly(4) }

func TestRootsSpreadRoundRobin(t *testing.T) {
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(machine(), g))
	for i := 0; i < 8; i++ {
		s.Push(g.Submit(&runtime.Task{Kind: "r", Cost: []float64{1}}))
	}
	for w := 0; w < 4; w++ {
		if got := len(s.deques[w]); got != 2 {
			t.Errorf("deque %d len = %d, want 2", w, got)
		}
	}
}

func TestOwnerPopsLIFO(t *testing.T) {
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(machine(), g))
	a := g.Submit(&runtime.Task{Kind: "a", Cost: []float64{1}})
	b := g.Submit(&runtime.Task{Kind: "b", Cost: []float64{1}})
	// Round-robin: a -> deque 0, b -> deque 1. Refill deque 0 only.
	s.Push(a)
	c := g.Submit(&runtime.Task{Kind: "c", Cost: []float64{1}})
	g.Declare(a, c) // c's owner is whoever ran a
	s.Push(b)

	w0 := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	got := s.Pop(w0)
	if got != a {
		t.Fatalf("pop = %v, want a", got.Kind)
	}
	a.RanOn = 0
	a.EndAt = 1
	s.Push(c) // lands on deque 0 (a ran there)
	if len(s.deques[0]) != 1 {
		t.Fatalf("released task did not land on the releasing worker")
	}
	if got := s.Pop(w0); got != c {
		t.Errorf("pop = %v, want c (own deque first)", got.Kind)
	}
}

func TestStealFromNeighbour(t *testing.T) {
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(machine(), g))
	a := g.Submit(&runtime.Task{Kind: "a", Cost: []float64{1}})
	s.Push(a) // deque 0
	w3 := runtime.WorkerInfo{ID: 3, Arch: 0, Mem: 0}
	if got := s.Pop(w3); got != a {
		t.Errorf("worker 3 failed to steal from worker 0")
	}
}

func TestStealSkipsUnrunnable(t *testing.T) {
	m := &platform.Machine{
		Name:  "mixed",
		Archs: []platform.Arch{{Name: "cpu"}, {Name: "gpu"}},
		Mems:  []platform.MemNode{{Name: "ram"}, {Name: "gpu-mem"}},
		Units: []platform.Unit{
			{Name: "cpu0", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "gpu0", Arch: 1, Mem: 1, SpeedFactor: 1},
		},
		LinkMatrix: [][]platform.Link{
			{{}, {BandwidthBytes: 1e9}},
			{{BandwidthBytes: 1e9}, {}},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(m, g))
	gpuOnly := g.Submit(&runtime.Task{Kind: "g", Cost: []float64{0, 1}})
	cpuOnly := g.Submit(&runtime.Task{Kind: "c", Cost: []float64{1, 0}})
	s.Push(gpuOnly) // deque 0 (round robin)
	s.Push(cpuOnly) // deque 1
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got != cpuOnly {
		t.Errorf("CPU pop = %v, want the CPU-only task via steal", got)
	}
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != gpuOnly {
		t.Errorf("GPU pop = %v, want the GPU-only task", got)
	}
}

func TestEndToEndSimulation(t *testing.T) {
	g := runtime.NewGraph()
	h := g.NewData("x", 8)
	g.Submit(&runtime.Task{Kind: "w", Cost: []float64{0.1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
	for i := 0; i < 20; i++ {
		g.Submit(&runtime.Task{Kind: "r", Cost: []float64{0.1},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
	}
	res, err := sim.Run(machine(), g, New())
	if err != nil {
		t.Fatal(err)
	}
	// 0.1 init + ceil(20/4)*0.1 of reads.
	if res.Makespan < 0.59 || res.Makespan > 0.62 {
		t.Errorf("makespan = %v, want ≈0.6", res.Makespan)
	}
}

func TestVictimOrderPrefersSameMemNode(t *testing.T) {
	m := &platform.Machine{
		Name:  "two-node",
		Archs: []platform.Arch{{Name: "cpu"}},
		Mems:  []platform.MemNode{{Name: "n0"}, {Name: "n1"}},
		Units: []platform.Unit{
			{Name: "a", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "b", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "c", Arch: 0, Mem: 1, SpeedFactor: 1},
		},
		LinkMatrix: [][]platform.Link{
			{{}, {BandwidthBytes: 1e9}},
			{{BandwidthBytes: 1e9}, {}},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(m, g))
	// Tasks land round-robin: deque 0, 1, 2.
	t0 := g.Submit(&runtime.Task{Kind: "t0", Cost: []float64{1}})
	t1 := g.Submit(&runtime.Task{Kind: "t1", Cost: []float64{1}})
	t2 := g.Submit(&runtime.Task{Kind: "t2", Cost: []float64{1}})
	s.Push(t0)
	s.Push(t1)
	s.Push(t2)
	// Worker 0 drains its own deque first, then steals from its
	// same-node neighbour (worker 1) before the remote worker 2.
	w0 := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w0); got != t0 {
		t.Fatalf("first pop = %v, want own task", got)
	}
	if got := s.Pop(w0); got != t1 {
		t.Fatalf("second pop = %v, want same-node steal t1", got)
	}
	if got := s.Pop(w0); got != t2 {
		t.Fatalf("third pop = %v, want remote steal t2", got)
	}
}

func TestOwnerLIFOWithinDeque(t *testing.T) {
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(platform.CPUOnly(1), g))
	a := g.Submit(&runtime.Task{Kind: "a", Cost: []float64{1}})
	b := g.Submit(&runtime.Task{Kind: "b", Cost: []float64{1}})
	s.Push(a)
	s.Push(b) // single worker: both land on deque 0
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w); got != b {
		t.Errorf("owner pop = %v, want LIFO tail b", got)
	}
}
