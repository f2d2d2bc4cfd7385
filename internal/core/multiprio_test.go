package core

import (
	"fmt"
	"math"
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// twoArchMachine builds a machine with nA workers of arch 0 and nB of
// arch 1 (each GPU-like node gets its own memory node).
func twoArchMachine(nA, nB int) *platform.Machine {
	m := &platform.Machine{
		Name:  "test",
		Archs: []platform.Arch{{Name: "a1"}, {Name: "a2"}},
		Mems:  []platform.MemNode{{Name: "ram"}},
	}
	for i := 0; i < nA; i++ {
		m.Units = append(m.Units, platform.Unit{Name: fmt.Sprintf("a1w%d", i), Arch: 0, Mem: 0, SpeedFactor: 1})
	}
	for i := 0; i < nB; i++ {
		mem := platform.MemID(len(m.Mems))
		m.Mems = append(m.Mems, platform.MemNode{Name: fmt.Sprintf("a2mem%d", i)})
		m.Units = append(m.Units, platform.Unit{Name: fmt.Sprintf("a2w%d", i), Arch: 1, Mem: mem, SpeedFactor: 1})
	}
	n := len(m.Mems)
	m.LinkMatrix = make([][]platform.Link, n)
	for i := range m.LinkMatrix {
		m.LinkMatrix[i] = make([]platform.Link, n)
		for j := range m.LinkMatrix[i] {
			if i != j {
				m.LinkMatrix[i][j] = platform.Link{BandwidthBytes: 1e9}
			}
		}
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

func newSched(m *platform.Machine, g *runtime.Graph, cfg Config) (*Sched, *runtime.Env) {
	s := New(cfg)
	env := runtime.NewEnv(m, g)
	s.Init(env)
	return s, env
}

// TestGainTableII reproduces the paper's Table II exactly: three tasks,
// two architecture types, hd(a1) = hd(a2) = 19.
func TestGainTableII(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()

	// δ in "ms" (unit is irrelevant, only ratios matter).
	tA := g.Submit(runtime.TaskSpec{Kind: "A", Cost: []float64{1, 20}})
	tB := g.Submit(runtime.TaskSpec{Kind: "B", Cost: []float64{5, 10}})
	tC := g.Submit(runtime.TaskSpec{Kind: "C", Cost: []float64{20, 10}})
	s, _ := newSched(m, g, Defaults())

	// Push in table order so hd reaches 19 with task A, as the table's
	// single hd value implies.
	s.Push(tA)
	s.Push(tB)
	s.Push(tC)

	if s.hd[0] != 19 || s.hd[1] != 19 {
		t.Fatalf("hd = %v, want [19 19]", s.hd)
	}

	want := map[*runtime.Task][2]float64{
		tA: {1, 0},
		tB: {24.0 / 38.0, 14.0 / 38.0}, // 0.631, 0.368
		tC: {9.0 / 38.0, 29.0 / 38.0},  // 0.236, 0.763
	}
	for task, w := range want {
		for a := 0; a < 2; a++ {
			got := s.gain(task, platform.ArchID(a))
			if math.Abs(got-w[a]) > 1e-9 {
				t.Errorf("gain(%s, a%d) = %.6f, want %.6f", task.Kind(), a+1, got, w[a])
			}
		}
	}

	// Heap order on a1: A > B > C; on a2 (mem 1): C > B > A.
	id0, _, _ := s.heaps[0].Peek()
	if id0 != tA.ID {
		t.Errorf("heap a1 head = task %d, want A", id0)
	}
	id1, _, _ := s.heaps[1].Peek()
	if id1 != tC.ID {
		t.Errorf("heap a2 head = task %d, want C", id1)
	}
}

// TestNODFig3 reproduces the paper's Fig. 3 worked example:
// NOD(T2) = 2.5 and NOD(T3) = 1.
func TestNODFig3(t *testing.T) {
	m := twoArchMachine(2, 0)
	g := runtime.NewGraph()

	mk := func(kind string) *runtime.Task {
		return g.Submit(runtime.TaskSpec{Kind: kind, Cost: []float64{1}})
	}
	t2 := mk("T2")
	t3 := mk("T3")
	t4 := mk("T4")
	t5 := mk("T5")
	t6 := mk("T6")
	t7 := mk("T7")
	// T2 -> {T4, T5, T6}; T3 -> {T6, T7}; T6 and T7 have two preds.
	g.Declare(t2, t4)
	g.Declare(t2, t5)
	g.Declare(t2, t6)
	g.Declare(t3, t6)
	g.Declare(t3, t7)
	g.Declare(t6, t7)
	s, _ := newSched(m, g, Defaults())

	if got := s.NOD(t2, 0); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("NOD(T2) = %v, want 2.5", got)
	}
	if got := s.NOD(t3, 0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("NOD(T3) = %v, want 1", got)
	}
}

func TestNODRestrictedToArch(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	parent := g.Submit(runtime.TaskSpec{Kind: "p", Cost: []float64{1, 1}})
	cpuOnly := g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{1, 0}})
	gpuOnly := g.Submit(runtime.TaskSpec{Kind: "g", Cost: []float64{0, 1}})
	g.Declare(parent, cpuOnly)
	g.Declare(parent, gpuOnly)
	s, _ := newSched(m, g, Defaults())

	if got := s.NOD(parent, 0); got != 1 {
		t.Errorf("NOD on arch0 = %v, want 1 (only the CPU successor counts)", got)
	}
	if got := s.NOD(parent, 1); got != 1 {
		t.Errorf("NOD on arch1 = %v, want 1 (only the GPU successor counts)", got)
	}
}

func TestGainSingleArchIsOne(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	cpuOnly := g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{3, 0}})
	s, _ := newSched(m, g, Defaults())
	s.Push(cpuOnly)
	if got := s.gain(cpuOnly, 0); got != 1 {
		t.Errorf("gain with a single eligible arch = %v, want 1", got)
	}
}

func TestGainZeroHDIsHalf(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	// Identical δ on both archs → hd stays 0 → neutral 0.5.
	eq := g.Submit(runtime.TaskSpec{Kind: "e", Cost: []float64{2, 2}})
	s, _ := newSched(m, g, Defaults())
	s.Push(eq)
	if got := s.gain(eq, 0); got != 0.5 {
		t.Errorf("gain with hd=0 = %v, want 0.5", got)
	}
}

func TestPushInsertsIntoAllEligibleHeaps(t *testing.T) {
	m := twoArchMachine(2, 2) // mems: ram, a2mem, a2mem
	g := runtime.NewGraph()
	both := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	cpuOnly := g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{4, 0}})
	s, _ := newSched(m, g, Defaults())
	s.Push(both)
	for mem := 0; mem < 3; mem++ {
		if s.heaps[mem].Len() != 1 {
			t.Errorf("heap %d len = %d, want 1 (duplication across nodes)", mem, s.heaps[mem].Len())
		}
	}
	s.Push(cpuOnly)
	if s.heaps[0].Len() != 2 || s.heaps[1].Len() != 1 {
		t.Error("CPU-only task leaked into a GPU heap")
	}
}

func TestBestRemainingWorkAccounting(t *testing.T) {
	m := twoArchMachine(2, 2)
	g := runtime.NewGraph()
	// GPU-best task: δ gpu=1, cpu=4.
	task := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	s, _ := newSched(m, g, Defaults())
	s.Push(task)
	if got := s.bestRemaining[1]; got != 1 {
		t.Errorf("bestRemaining[gpu0] = %v, want 1", got)
	}
	if got := s.bestRemaining[2]; got != 1 {
		t.Errorf("bestRemaining[gpu1] = %v, want 1", got)
	}
	if got := s.bestRemaining[0]; got != 0 {
		t.Errorf("bestRemaining[ram] = %v, want 0 (task is GPU-best)", got)
	}
	// GPU worker pops it: counters return to zero.
	w := runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1}
	if got := s.Pop(w); got != task {
		t.Fatalf("Pop = %v, want the task", got)
	}
	if got := s.bestRemaining[1]; got != 0 {
		t.Errorf("bestRemaining[gpu0] after pop = %v, want 0", got)
	}
	if s.readyOn(0) != 0 || s.readyOn(1) != 0 || s.readyOn(2) != 0 {
		t.Error("ready counts nonzero after claiming the only task")
	}
}

func TestPopConditionBestWorkerAlwaysTakes(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	task := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	s, _ := newSched(m, g, Defaults())
	s.Push(task)
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != task {
		t.Error("best worker was refused its task")
	}
}

func TestPopConditionEvictsFromSlowWorker(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	// One GPU-best task; the GPU queue holds only it, so
	// best_remaining_work (1s) < δ(t, cpu) (4s): CPU must not take it.
	task := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	s, _ := newSched(m, g, Defaults())
	s.Push(task)
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got != nil {
		t.Fatalf("CPU worker stole a GPU-best task with an idle GPU")
	}
	// The task must survive in the GPU heap (last-copy protection also
	// prevents removing it from the CPU heap, but either way the GPU
	// still finds it).
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != task {
		t.Fatal("GPU no longer finds the task after CPU pop attempt")
	}
}

func TestPopConditionAllowsStealWhenBestIsLoaded(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	// Six GPU-best tasks, each 1s on GPU and 3s on CPU. With 6s of
	// best-remaining work > 3s, the CPU is allowed to take one.
	for i := 0; i < 6; i++ {
		g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{3, 1}})
	}
	s, _ := newSched(m, g, Defaults())
	for _, task := range g.Tasks {
		s.Push(task)
	}
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got == nil {
		t.Fatal("CPU was refused although the GPU queue holds 6s of work")
	}
	if got := s.bestRemaining[1]; math.Abs(got-5) > 1e-9 {
		t.Errorf("bestRemaining after steal = %v, want 5", got)
	}
}

func TestDisableEvictionAlwaysPops(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	cfg := Defaults()
	cfg.DisableEviction = true
	task := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	s, _ := newSched(m, g, cfg)
	s.Push(task)
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got != task {
		t.Error("with eviction disabled the CPU should take the task")
	}
}

func TestEvictionCounterAndDuplicateSurvival(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	// Two GPU-best tasks: enough remaining work (2s) to beat δ_cpu for
	// neither (4s each) → CPU pops evict both copies from the CPU heap.
	t1 := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	t2 := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	s, _ := newSched(m, g, Defaults())
	s.Push(t1)
	s.Push(t2)
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got != nil {
		t.Fatal("CPU should be refused (2s remaining < 4s cost)")
	}
	if s.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	if s.heaps[0].Len() != 0 {
		t.Errorf("CPU heap len = %d, want 0 after evictions", s.heaps[0].Len())
	}
	if s.heaps[1].Len() != 2 {
		t.Errorf("GPU heap len = %d, want 2 (duplicates survive)", s.heaps[1].Len())
	}
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if s.Pop(gpu) == nil || s.Pop(gpu) == nil {
		t.Error("GPU could not drain the surviving duplicates")
	}
}

func TestLastCopyNeverEvicted(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	cfg := Defaults()
	cfg.MaxTries = 10
	task := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	s, _ := newSched(m, g, cfg)
	s.Push(task)
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	// Evicts from CPU heap once; the GPU copy is the last one the CPU
	// heap... after the CPU eviction the GPU heap still holds it.
	s.Pop(cpu)
	gpuHeapLen := s.heaps[1].Len()
	if gpuHeapLen != 1 {
		t.Fatalf("GPU heap len = %d, want 1", gpuHeapLen)
	}
}

func TestCriticalityBreaksGainTies(t *testing.T) {
	m := twoArchMachine(1, 0)
	g := runtime.NewGraph()
	// Equal gain (single arch → 1); lowPrio has no successors, hiPrio
	// releases two.
	lowPrio := g.Submit(runtime.TaskSpec{Kind: "low", Cost: []float64{1}})
	hiPrio := g.Submit(runtime.TaskSpec{Kind: "hi", Cost: []float64{1}})
	c1 := g.Submit(runtime.TaskSpec{Kind: "c1", Cost: []float64{1}})
	c2 := g.Submit(runtime.TaskSpec{Kind: "c2", Cost: []float64{1}})
	g.Declare(hiPrio, c1)
	g.Declare(hiPrio, c2)

	s, _ := newSched(m, g, Defaults())
	s.Push(lowPrio)
	s.Push(hiPrio)
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got != hiPrio {
		t.Errorf("Pop = %s, want the critical task first", got.Kind())
	}
}

func TestDisableCriticalityIgnoresNOD(t *testing.T) {
	m := twoArchMachine(1, 0)
	g := runtime.NewGraph()
	cfg := Defaults()
	cfg.DisableCriticality = true
	lowPrio := g.Submit(runtime.TaskSpec{Kind: "low", Cost: []float64{1}})
	hiPrio := g.Submit(runtime.TaskSpec{Kind: "hi", Cost: []float64{1}})
	c1 := g.Submit(runtime.TaskSpec{Kind: "c1", Cost: []float64{1}})
	g.Declare(hiPrio, c1)
	s, _ := newSched(m, g, cfg)
	s.Push(lowPrio)
	s.Push(hiPrio)
	// Both score (1, 0): heap order is by insertion-structure, the
	// first pushed stays on top.
	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	if got := s.Pop(cpu); got != lowPrio {
		t.Errorf("Pop = %s, want FIFO-ish head with criticality off", got.Kind())
	}
}

func TestFlatGainAblation(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	cfg := Defaults()
	cfg.FlatGain = true
	task := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{4, 1}})
	s, _ := newSched(m, g, cfg)
	s.Push(task)
	if got := s.gain(task, 1); got != 1 {
		t.Errorf("flat gain on best arch = %v, want 1", got)
	}
	if got := s.gain(task, 0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("flat gain on slow arch = %v, want 0.25", got)
	}
}

func TestPopEmptyHeapReturnsNil(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	s, _ := newSched(m, g, Defaults())
	if got := s.Pop(runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}); got != nil {
		t.Errorf("Pop on empty scheduler = %v", got)
	}
}

func TestPushTaskWithNoEligibleArchPanics(t *testing.T) {
	m := twoArchMachine(1, 0) // no arch-1 workers
	g := runtime.NewGraph()
	s, _ := newSched(m, g, Defaults())
	gpuOnly := runtime.NewGraph().Submit(runtime.TaskSpec{Kind: "g", Cost: []float64{0, 1}})
	gpuOnly.ID = 99
	defer func() {
		if recover() == nil {
			t.Error("Push of unrunnable task did not panic")
		}
	}()
	s.Push(gpuOnly)
}
