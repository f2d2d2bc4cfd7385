package lws

import (
	"fmt"
	"testing"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/distrib"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"
)

func machine() *platform.Machine { return platform.CPUOnly(4) }

// stepClock is the Clock of a run a test drives by hand; these runs
// schedule no callbacks.
type stepClock struct{ now float64 }

func (c *stepClock) Now() float64       { return c.now }
func (c *stepClock) At(float64, func()) { panic("lws test: unexpected clock callback") }

// handRun is a run of g on m under s driven through the calls an engine
// makes: Start pushes the roots, finish executes a popped task.
type handRun struct {
	runtime.RunFrame
	m   *platform.Machine
	clk *stepClock
}

func startHandRun(t *testing.T, m *platform.Machine, g *runtime.Graph, s runtime.Scheduler) *handRun {
	t.Helper()
	cfg := runtime.BuildRunConfig(nil)
	fr, err := cfg.Begin("test", m, g, s, perfmodel.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	r := &handRun{RunFrame: fr, m: m, clk: &stepClock{}}
	env := runtime.NewEnv(m, g)
	env.Now = r.clk.Now
	r.Start(r.clk, env, func(platform.UnitID) {})
	return r
}

func (r *handRun) worker(u int) runtime.WorkerInfo {
	return runtime.WorkerInfo{ID: platform.UnitID(u), Arch: r.m.Units[u].Arch, Mem: r.m.Units[u].Mem}
}

// finish runs task t, which unit u popped, from 0 to the clock's now and
// releases its successors.
func (r *handRun) finish(t *runtime.Task, u int) {
	w := r.worker(u)
	r.Commit(r.Popped(t, w.ID), 0, r.clk.now)
	r.Complete(t, w, r.Release(t, w, r.clk.now))
}

func TestRootsSpreadRoundRobin(t *testing.T) {
	g := runtime.NewGraph()
	for i := 0; i < 8; i++ {
		g.Submit(runtime.TaskSpec{Kind: "r", Cost: []float64{1}})
	}
	s := New()
	s.Init(runtime.NewEnv(machine(), g))
	for _, task := range g.Tasks {
		s.Push(task)
	}
	for w := 0; w < 4; w++ {
		if got := len(s.deques[w]); got != 2 {
			t.Errorf("deque %d len = %d, want 2", w, got)
		}
	}
}

func TestOwnerPopsLIFO(t *testing.T) {
	g := runtime.NewGraph()
	a := g.Submit(runtime.TaskSpec{Kind: "a", Cost: []float64{1}})
	g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{1}})
	c := g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{1}})
	g.Declare(a, c) // c's owner is whoever ran a
	s := New()
	// Round-robin: a -> deque 0, b -> deque 1. Refill deque 0 only.
	r := startHandRun(t, machine(), g, s)

	got := s.Pop(r.worker(0))
	if got != a {
		t.Fatalf("pop = %v, want a", got.Kind())
	}
	r.clk.now = 1
	r.finish(a, 0) // c lands on deque 0 (a ran there)
	if len(s.deques[0]) != 1 {
		t.Fatalf("released task did not land on the releasing worker")
	}
	if got := s.Pop(r.worker(0)); got != c {
		t.Errorf("pop = %v, want c (own deque first)", got.Kind())
	}
}

// TestOwnerOnClusterNode: under the two-level distributor each node's
// lws has one deque per node-local worker. A chain a -> b on node 1
// lands b on the deque of the worker that ran a, found by its node-local
// unit — not on the deque a global unit ID would name, nor spread
// round-robin.
func TestOwnerOnClusterNode(t *testing.T) {
	m, err := platform.UniformCluster("lws2", 2, func(i int) (*platform.Machine, error) {
		n := platform.CPUOnly(2)
		n.Name = fmt.Sprintf("node%d", i)
		return n, nil
	}, 1e9, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	g := runtime.NewGraph()
	task := func(kind string) *runtime.Task {
		return g.Submit(runtime.TaskSpec{Kind: kind, Cost: []float64{1}})
	}
	// The roots alternate between the nodes, so node 1 gets a, y and z:
	// its lws puts them on deques 0, 1 and 0.
	task("x0")
	a := task("a")
	task("x1")
	task("y")
	task("x2")
	z := task("z")
	b := task("b")
	g.Declare(a, b)
	s, err := distrib.New("lws", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := startHandRun(t, m, g, s)
	const w = 2 // node 1's worker 0
	for _, want := range []*runtime.Task{z, a} {
		if got := s.Pop(r.worker(w)); got != want {
			t.Fatalf("pop = %v, want %s", got, want.Kind())
		}
	}
	r.Popped(z, w)
	r.clk.now = 1
	r.finish(a, w)
	// b is on worker 0's deque, whose owner pops it before stealing y.
	if got := s.Pop(r.worker(w)); got != b {
		t.Errorf("pop = %s, want b on the deque of the worker that ran a", got.Kind())
	}
}

func TestStealFromNeighbour(t *testing.T) {
	g := runtime.NewGraph()
	s := New()
	a := g.Submit(runtime.TaskSpec{Kind: "a", Cost: []float64{1}})
	s.Init(runtime.NewEnv(machine(), g))
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
	gpuOnly := g.Submit(runtime.TaskSpec{Kind: "g", Cost: []float64{0, 1}})
	cpuOnly := g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{1, 0}})
	s.Init(runtime.NewEnv(m, g))
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
	g.Submit(runtime.TaskSpec{Kind: "w", Cost: []float64{0.1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
	for i := 0; i < 20; i++ {
		g.Submit(runtime.TaskSpec{Kind: "r", Cost: []float64{0.1},
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
	// Tasks land round-robin: deque 0, 1, 2.
	t0 := g.Submit(runtime.TaskSpec{Kind: "t0", Cost: []float64{1}})
	t1 := g.Submit(runtime.TaskSpec{Kind: "t1", Cost: []float64{1}})
	t2 := g.Submit(runtime.TaskSpec{Kind: "t2", Cost: []float64{1}})
	s.Init(runtime.NewEnv(m, g))
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
	a := g.Submit(runtime.TaskSpec{Kind: "a", Cost: []float64{1}})
	b := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{1}})
	s.Init(runtime.NewEnv(platform.CPUOnly(1), g))
	s.Push(a)
	s.Push(b) // single worker: both land on deque 0
	w := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(w); got != b {
		t.Errorf("owner pop = %v, want LIFO tail b", got)
	}
}
