package heteroprio

import (
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

func hetero() *platform.Machine {
	m := &platform.Machine{
		Name:  "hetero",
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
		panic(err)
	}
	return m
}

// start opens a run of g on a CPU and a GPU.
func start(g *runtime.Graph) *Sched {
	s := New()
	s.Init(runtime.NewEnv(hetero(), g))
	return s
}

func TestBucketOrderBySpeedup(t *testing.T) {
	g := runtime.NewGraph()
	// gemm: 10x GPU speedup; trsm: 2x; small: CPU-favourable 0.5x.
	g.Submit(runtime.TaskSpec{Kind: "gemm", Cost: []float64{10, 1}})
	g.Submit(runtime.TaskSpec{Kind: "trsm", Cost: []float64{2, 1}})
	g.Submit(runtime.TaskSpec{Kind: "small", Cost: []float64{1, 2}})
	s := start(g)
	for _, task := range g.Tasks {
		s.Push(task)
	}

	order := s.bucketOrder()
	want := []string{"small/0", "trsm/0", "gemm/0"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestGPUTakesAcceleratedFirst(t *testing.T) {
	g := runtime.NewGraph()
	small := g.Submit(runtime.TaskSpec{Kind: "small", Cost: []float64{1, 2}})
	gemm := g.Submit(runtime.TaskSpec{Kind: "gemm", Cost: []float64{10, 1}})
	s := start(g)
	s.Push(small)
	s.Push(gemm)

	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != gemm {
		t.Errorf("GPU popped %s, want gemm", got.Kind())
	}
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got != small {
		t.Errorf("CPU popped %s, want small", got.Kind())
	}
}

func TestCPUTakesCPUFavourableFirst(t *testing.T) {
	g := runtime.NewGraph()
	gemm := g.Submit(runtime.TaskSpec{Kind: "gemm", Cost: []float64{10, 1}})
	small := g.Submit(runtime.TaskSpec{Kind: "small", Cost: []float64{1, 2}})
	s := start(g)
	s.Push(gemm)
	s.Push(small)
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got != small {
		t.Errorf("CPU popped %s, want small first", got.Kind())
	}
	// With only gemm left the CPU still takes it (starvation
	// avoidance: plain traversal reaches every bucket).
	if got := s.Pop(cpu); got != gemm {
		t.Errorf("CPU popped %v, want gemm as fallback", got)
	}
}

func TestArchRestrictedTasks(t *testing.T) {
	g := runtime.NewGraph()
	gpuOnly := g.Submit(runtime.TaskSpec{Kind: "gpuonly", Cost: []float64{0, 1}})
	cpuOnly := g.Submit(runtime.TaskSpec{Kind: "cpuonly", Cost: []float64{1, 0}})
	s := start(g)
	s.Push(gpuOnly)
	s.Push(cpuOnly)
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(cpu); got != cpuOnly {
		t.Errorf("CPU popped %v, want cpuOnly", got)
	}
	if got := s.Pop(gpu); got != gpuOnly {
		t.Errorf("GPU popped %v, want gpuOnly", got)
	}
	if s.Pop(cpu) != nil || s.Pop(gpu) != nil {
		t.Error("pops on empty buckets returned tasks")
	}
}

func TestFIFOWithinBucket(t *testing.T) {
	g := runtime.NewGraph()
	a := g.Submit(runtime.TaskSpec{Kind: "gemm", Cost: []float64{10, 1}})
	b := g.Submit(runtime.TaskSpec{Kind: "gemm", Cost: []float64{10, 1}})
	s := start(g)
	s.Push(a)
	s.Push(b)
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != a {
		t.Error("bucket order not FIFO")
	}
	if got := s.Pop(gpu); got != b {
		t.Error("bucket order not FIFO")
	}
}

func TestEndToEndSimulation(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	for i := 0; i < 20; i++ {
		kind := "gemm"
		cost := []float64{1, 0.1}
		if i%3 == 0 {
			kind, cost = "small", []float64{0.1, 0.2}
		}
		g.Submit(runtime.TaskSpec{Kind: kind, Cost: cost})
	}
	res, err := sim.Run(m, g, New())
	if err != nil {
		t.Fatal(err)
	}
	// The GPU must take most of the accelerated work.
	gpuTasks := 0
	for _, sp := range res.Trace.Spans {
		if sp.Worker == 1 && sp.Kind == "gemm" {
			gpuTasks++
		}
	}
	if gpuTasks < 8 {
		t.Errorf("GPU executed %d gemm tasks, want most of 13", gpuTasks)
	}
}
