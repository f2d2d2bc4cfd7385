package sim

import (
	"errors"
	"math"
	"testing"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
)

// tinyMachine: 1 CPU on RAM, 1 GPU with its own small memory.
func tinyMachine(gpuMemBytes int64) *platform.Machine {
	m := &platform.Machine{
		Name:  "tiny",
		Archs: []platform.Arch{{Name: "cpu", PeakGFlops: 10}, {Name: "gpu", PeakGFlops: 100}},
		Mems: []platform.MemNode{
			{Name: "ram"},
			{Name: "gpu-mem", CapacityBytes: gpuMemBytes},
		},
		Units: []platform.Unit{
			{Name: "cpu0", Arch: platform.ArchCPU, Mem: 0, SpeedFactor: 1},
			{Name: "gpu0", Arch: platform.ArchGPU, Mem: 1, SpeedFactor: 1},
		},
		LinkMatrix: [][]platform.Link{
			{{}, {BandwidthBytes: 1e9, LatencySec: 1e-6}},
			{{BandwidthBytes: 1e9, LatencySec: 1e-6}, {}},
		},
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

func gpuOnlyTask(g *runtime.Graph, kind string, gpuCost float64, acc ...runtime.Access) *runtime.Task {
	return g.Submit(runtime.TaskSpec{
		Kind: kind, Cost: []float64{0, gpuCost}, Accesses: acc,
	})
}

func bothTask(g *runtime.Graph, kind string, cpuCost, gpuCost float64, acc ...runtime.Access) *runtime.Task {
	return g.Submit(runtime.TaskSpec{
		Kind: kind, Cost: []float64{cpuCost, gpuCost}, Accesses: acc,
	})
}

func TestSimpleChainMakespan(t *testing.T) {
	m := platform.CPUOnly(1)
	g := runtime.NewGraph()
	h := g.NewData("x", 8)
	a := g.Submit(runtime.TaskSpec{Kind: "a", Cost: []float64{1}, Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
	b := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{2}, Accesses: []runtime.Access{{Handle: h, Mode: runtime.RW}}})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-3) > 1e-9 {
		t.Errorf("makespan = %v, want 3 (serial chain)", res.Makespan)
	}
	if res.Tasks[a.ID].EndAt > res.Tasks[b.ID].StartAt+1e-12 {
		t.Errorf("dependency violated: a ends %v, b starts %v", res.Tasks[a.ID].EndAt, res.Tasks[b.ID].StartAt)
	}
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	m := platform.CPUOnly(4)
	g := runtime.NewGraph()
	for i := 0; i < 4; i++ {
		g.Submit(runtime.TaskSpec{Kind: "p", Cost: []float64{1}})
	}
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-1) > 1e-9 {
		t.Errorf("makespan = %v, want 1 (4 tasks, 4 workers)", res.Makespan)
	}
}

func TestTransferDelaysGPUTask(t *testing.T) {
	m := tinyMachine(0) // unbounded GPU memory
	g := runtime.NewGraph()
	h := g.NewData("x", 1e9) // exactly 1 second on the 1 GB/s link
	gpuOnlyTask(g, "k", 1, runtime.Access{Handle: h, Mode: runtime.R})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	// 1s transfer + 1s compute (+latency).
	if res.Makespan < 2 || res.Makespan > 2.01 {
		t.Errorf("makespan = %v, want ≈2 (transfer + compute)", res.Makespan)
	}
	task := g.Tasks[0]
	span := res.Trace.Spans[0]
	if span.Wait < 0.99 {
		t.Errorf("span wait = %v, want ≈1s of transfer wait", span.Wait)
	}
	if res.Tasks[task.ID].RanOn != 1 {
		t.Errorf("task ran on unit %d, want GPU", res.Tasks[task.ID].RanOn)
	}
}

func TestDataReuseAvoidsSecondTransfer(t *testing.T) {
	m := tinyMachine(0)
	g := runtime.NewGraph()
	h := g.NewData("x", 1e9)
	gpuOnlyTask(g, "k1", 1, runtime.Access{Handle: h, Mode: runtime.R})
	gpuOnlyTask(g, "k2", 1, runtime.Access{Handle: h, Mode: runtime.R})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	// One transfer (1s) + 2 sequential computes on the single GPU.
	if res.Makespan > 3.01 {
		t.Errorf("makespan = %v, want ≈3 (data reused)", res.Makespan)
	}
	nx := 0
	for _, x := range res.Trace.Xfers {
		if !x.Prefetch {
			nx++
		}
	}
	if nx != 1 {
		t.Errorf("transfers = %d, want 1 (second task reuses replica)", nx)
	}
}

func TestWriteInvalidatesOtherReplicas(t *testing.T) {
	m := tinyMachine(0)
	g := runtime.NewGraph()
	h := g.NewData("x", 1e9)
	// GPU reads (replica lands on GPU), CPU writes (invalidates GPU),
	// GPU reads again (must re-transfer).
	gpuOnlyTask(g, "gr1", 0.1, runtime.Access{Handle: h, Mode: runtime.R})
	g.Submit(runtime.TaskSpec{Kind: "cw", Cost: []float64{0.1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.RW}}})
	gpuOnlyTask(g, "gr2", 0.1, runtime.Access{Handle: h, Mode: runtime.R})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	fetches := 0
	for _, x := range res.Trace.Xfers {
		if x.Dst == 1 && !x.Prefetch {
			fetches++
		}
	}
	if fetches != 2 {
		t.Errorf("RAM->GPU fetches = %d, want 2 (invalidation forces refetch)", fetches)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// GPU memory fits only one 1 GB handle at a time.
	m := tinyMachine(1_200_000_000)
	g := runtime.NewGraph()
	h1 := g.NewData("a", 1e9)
	h2 := g.NewData("b", 1e9)
	// Write h1 on GPU (dirty there), then use h2 on GPU (evicts h1,
	// write-back). The CPU reader depends on both writes so its demand
	// fetch cannot race ahead of the eviction.
	gpuOnlyTask(g, "w1", 0.1, runtime.Access{Handle: h1, Mode: runtime.RW})
	gpuOnlyTask(g, "w2", 0.1, runtime.Access{Handle: h2, Mode: runtime.RW})
	g.Submit(runtime.TaskSpec{Kind: "cr", Cost: []float64{0.1},
		Accesses: []runtime.Access{{Handle: h1, Mode: runtime.R}, {Handle: h2, Mode: runtime.R}}})
	// Pipeline 1: with lookahead the second task's acquire would start
	// while the first still pins h1, forcing overflow instead of the
	// eviction this test verifies.
	res, err := Run(m, g, eager.New(), runtime.WithPipeline(1))
	if err != nil {
		t.Fatal(err)
	}
	_, _, wb := res.Trace.TransferredBytes()
	if wb != 1e9 {
		t.Errorf("writeback bytes = %d, want 1e9", wb)
	}
	if res.OverflowBytes[1] != 0 {
		t.Errorf("overflow = %d, want 0 (eviction should cover)", res.OverflowBytes[1])
	}
}

func TestOverflowWhenNothingEvictable(t *testing.T) {
	// GPU memory smaller than one task's working set.
	m := tinyMachine(100)
	g := runtime.NewGraph()
	h1 := g.NewData("a", 1000)
	h2 := g.NewData("b", 1000)
	gpuOnlyTask(g, "k", 0.1,
		runtime.Access{Handle: h1, Mode: runtime.R},
		runtime.Access{Handle: h2, Mode: runtime.R})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.OverflowBytes[1] == 0 {
		t.Error("expected overflow on GPU memory node")
	}
}

func TestLinkContentionSerializesTransfers(t *testing.T) {
	m := tinyMachine(0)
	g := runtime.NewGraph()
	h1 := g.NewData("a", 1e9)
	h2 := g.NewData("b", 1e9)
	// Two independent GPU tasks with distinct 1s-transfers: the link
	// serializes them, so the second compute cannot start before 2s.
	gpuOnlyTask(g, "k1", 0.1, runtime.Access{Handle: h1, Mode: runtime.R})
	gpuOnlyTask(g, "k2", 0.1, runtime.Access{Handle: h2, Mode: runtime.R})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 2.1-1e-9 {
		t.Errorf("makespan = %v, want >= 2.1 (serialized link)", res.Makespan)
	}
}

func TestHistoryRecording(t *testing.T) {
	m := platform.CPUOnly(1)
	g := runtime.NewGraph()
	tk := g.Submit(runtime.TaskSpec{Kind: "kern", Footprint: 9, Cost: []float64{0.5}})
	hist := perfmodel.NewHistory()
	res, err := Run(m, g, eager.New(), runtime.WithHistory(hist))
	if err != nil {
		t.Fatal(err)
	}
	mean, ok := hist.Mean("kern", platform.ArchCPU, 9)
	if !ok || math.Abs(mean-0.5) > 1e-9 {
		t.Errorf("recorded mean = %v, %v; want 0.5", mean, ok)
	}
	if res.Tasks[tk.ID].EndAt != 0.5 {
		t.Errorf("task EndAt = %v, want 0.5", res.Tasks[tk.ID].EndAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := platform.CPUOnly(1)
	g := runtime.NewGraph()
	g.Submit(runtime.TaskSpec{Kind: "t", Cost: []float64{1}})
	res, err := Run(m, g, refuser{})
	if !errors.Is(err, runtime.ErrStarved) || res != nil {
		t.Errorf("result %v, err = %v, want no result and runtime.ErrStarved", res, err)
	}
}

type refuser struct{}

func (refuser) Name() string                               { return "refuser" }
func (refuser) Init(*runtime.Env)                          {}
func (refuser) Push(*runtime.Task)                         {}
func (refuser) Pop(runtime.WorkerInfo) *runtime.Task       { return nil }
func (refuser) TaskDone(*runtime.Task, runtime.WorkerInfo) {}

func TestHeterogeneousPlacementBySpeed(t *testing.T) {
	// Eager assigns FIFO, but a GPU-only task must land on the GPU and
	// a CPU-only task on the CPU.
	m := tinyMachine(0)
	g := runtime.NewGraph()
	gpu := gpuOnlyTask(g, "g", 0.1)
	cpu := g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{0.1}})
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if m.Units[res.Tasks[gpu.ID].RanOn].Arch != platform.ArchGPU {
		t.Error("GPU-only task ran on CPU")
	}
	if m.Units[res.Tasks[cpu.ID].RanOn].Arch != platform.ArchCPU {
		t.Error("CPU-only task ran on GPU (no GPU implementation)")
	}
}

func TestStreamWorkersShareDevice(t *testing.T) {
	// 2-stream GPU: two workers each at half speed. Two equal tasks
	// finish together at 2 * base.
	m := &platform.Machine{
		Name:  "streams",
		Archs: []platform.Arch{{Name: "cpu"}, {Name: "gpu"}},
		Mems:  []platform.MemNode{{Name: "ram"}, {Name: "gpu-mem"}},
		Units: []platform.Unit{
			{Name: "cpu0", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "gpu0.s0", Arch: 1, Mem: 1, SpeedFactor: 2},
			{Name: "gpu0.s1", Arch: 1, Mem: 1, SpeedFactor: 2},
		},
		LinkMatrix: [][]platform.Link{
			{{}, {BandwidthBytes: 1e12, LatencySec: 0}},
			{{BandwidthBytes: 1e12, LatencySec: 0}, {}},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	g := runtime.NewGraph()
	gpuOnlyTask(g, "k", 1)
	gpuOnlyTask(g, "k", 1)
	res, err := Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-2) > 1e-9 {
		t.Errorf("makespan = %v, want 2 (two streams at half device speed)", res.Makespan)
	}
}
