package core

import (
	"math"
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

// triArchMachine models a node with THREE architecture types (e.g. CPU
// plus two different accelerator generations), exercising the gain
// formula's fastest/second-fastest logic beyond the binary CPU/GPU case.
func triArchMachine() *platform.Machine {
	m := &platform.Machine{
		Name: "tri",
		Archs: []platform.Arch{
			{Name: "cpu", PeakGFlops: 30},
			{Name: "gpuA", PeakGFlops: 3000},
			{Name: "gpuB", PeakGFlops: 9000},
		},
		Mems: []platform.MemNode{{Name: "ram"}, {Name: "memA"}, {Name: "memB"}},
		Units: []platform.Unit{
			{Name: "cpu0", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "cpu1", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "gpuA0", Arch: 1, Mem: 1, SpeedFactor: 1},
			{Name: "gpuB0", Arch: 2, Mem: 2, SpeedFactor: 1},
		},
	}
	n := len(m.Mems)
	m.LinkMatrix = make([][]platform.Link, n)
	for i := range m.LinkMatrix {
		m.LinkMatrix[i] = make([]platform.Link, n)
		for j := range m.LinkMatrix[i] {
			if i != j {
				m.LinkMatrix[i][j] = platform.Link{BandwidthBytes: 10e9, LatencySec: 3e-6}
			}
		}
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

func TestGainThreeArchitectures(t *testing.T) {
	m := triArchMachine()
	g := runtime.NewGraph()
	// δ = 9 / 3 / 1: gpuB fastest, gpuA second, cpu slowest.
	task := g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{9, 3, 1}})
	s, _ := newSched(m, g, Defaults())
	s.Push(task)

	// hd per arch: fastest's diff vs second (|3-1| = 2 for gpuB),
	// others vs fastest: cpu |1-9| = 8, gpuA |1-3| = 2.
	if s.HD(0) != 8 || s.HD(1) != 2 || s.HD(2) != 2 {
		t.Fatalf("hd = %v %v %v, want 8 2 2", s.HD(0), s.HD(1), s.HD(2))
	}
	// gain(gpuB) = ((3-1)+2)/4 = 1 (fastest, against second fastest).
	if got := s.Gain(task, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("gain(gpuB) = %v, want 1", got)
	}
	// gain(gpuA) = ((1-3)+2)/4 = 0.
	if got := s.Gain(task, 1); math.Abs(got-0) > 1e-12 {
		t.Errorf("gain(gpuA) = %v, want 0", got)
	}
	// gain(cpu) = ((1-9)+8)/16 = 0.
	if got := s.Gain(task, 0); math.Abs(got-0) > 1e-12 {
		t.Errorf("gain(cpu) = %v, want 0", got)
	}
	// The task is duplicated across all three heaps.
	for mem := 0; mem < 3; mem++ {
		if s.heaps[mem].Len() != 1 {
			t.Errorf("heap %d empty", mem)
		}
	}
}

func TestPopConditionThreeArchitectures(t *testing.T) {
	m := triArchMachine()
	g := runtime.NewGraph()
	task := g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{9, 3, 1}})
	s, _ := newSched(m, g, Defaults())
	s.Push(task)
	// gpuA (second fastest) asks: best is gpuB with only 1s remaining,
	// below gpuA's 3s execution: refused.
	gpuA := runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1}
	if got := s.Pop(gpuA); got != nil {
		t.Fatal("second-fastest arch stole with an idle fastest arch")
	}
	// The fastest arch always gets it.
	gpuB := runtime.WorkerInfo{ID: 3, Arch: 2, Mem: 2}
	if got := s.Pop(gpuB); got != task {
		t.Fatal("fastest arch was refused")
	}
}

func TestTriArchEndToEnd(t *testing.T) {
	m := triArchMachine()
	g := runtime.NewGraph()
	for i := 0; i < 30; i++ {
		cost := []float64{0.09, 0.03, 0.01}
		if i%3 == 0 {
			cost = []float64{0.01, 0.05, 0.04} // CPU-favourable
		}
		g.Submit(runtime.TaskSpec{Kind: "k", Cost: cost})
	}
	for _, sched := range []runtime.Scheduler{New(Defaults()), eager.New()} {
		res, err := sim.Run(m, g, sched)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: no makespan", sched.Name())
		}
	}
}

func TestStreamWorkerSpeedFactorInPopCondition(t *testing.T) {
	// A GPU with two stream workers (speed factor 2): the pop condition
	// must charge the stream worker 2× the architecture reference time.
	m := &platform.Machine{
		Name:  "streams",
		Archs: []platform.Arch{{Name: "cpu"}, {Name: "gpu"}},
		Mems:  []platform.MemNode{{Name: "ram"}, {Name: "gmem"}},
		Units: []platform.Unit{
			{Name: "cpu0", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "g.s0", Arch: 1, Mem: 1, SpeedFactor: 2},
			{Name: "g.s1", Arch: 1, Mem: 1, SpeedFactor: 2},
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
	// CPU-best task (δcpu=2, δgpu=3). RAM brw = 2. A stream worker's
	// real cost is 3×2 = 6 > 2: must be refused even though the
	// reference δ (3) exceeds brw too... make brw land between:
	// push two CPU-best tasks -> brw = 4, reference δ = 3 < 4 would
	// steal WITHOUT the speed factor; 6 > 4 refuses WITH it.
	t1 := g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{2, 3}})
	t2 := g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{2, 3}})
	s, _ := newSched(m, g, Defaults())
	s.Push(t1)
	s.Push(t2)
	stream := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(stream); got != nil {
		t.Errorf("stream worker stole despite 2x speed factor (got %v)", got.Kind())
	}
}
