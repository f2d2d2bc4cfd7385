package shardfifo

import (
	"bytes"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

func machine() *platform.Machine { return platform.CPUOnly(4) }

func TestPushSpreadsRoundRobin(t *testing.T) {
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(machine(), g))
	for i := 0; i < 8; i++ {
		s.Push(g.Submit(&runtime.Task{Kind: "r", Cost: []float64{1}}))
	}
	for i := range s.shards {
		if got := len(s.shards[i].q); got != 2 {
			t.Errorf("shard %d len = %d, want 2", i, got)
		}
	}
}

func TestPopOwnShardFirstThenSteals(t *testing.T) {
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(machine(), g))
	a := g.Submit(&runtime.Task{Kind: "a", Cost: []float64{1}})
	b := g.Submit(&runtime.Task{Kind: "b", Cost: []float64{1}})
	s.Push(a) // shard 0
	s.Push(b) // shard 1
	w1 := runtime.WorkerInfo{ID: 1}
	if got := s.Pop(w1); got != b {
		t.Fatalf("worker 1 popped %v, want its own shard's task b", got.Kind)
	}
	if got := s.Pop(w1); got != a {
		t.Fatalf("worker 1 popped %v, want stolen task a", got.Kind)
	}
	if got := s.Pop(w1); got != nil {
		t.Fatalf("empty queue popped %v", got.Kind)
	}
}

func TestPopSkipsUnrunnable(t *testing.T) {
	m, err := platform.NewHeteroNode("hx", 2, 10, 1, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := runtime.NewGraph()
	s := New()
	s.Init(runtime.NewEnv(m, g))
	gpuOnly := g.Submit(&runtime.Task{Kind: "g", Cost: []float64{0, 1}})
	cpuOnly := g.Submit(&runtime.Task{Kind: "c", Cost: []float64{1, 0}})
	s.Push(gpuOnly)
	s.Push(cpuOnly)
	cpu := runtime.WorkerInfo{ID: 0, Arch: platform.ArchCPU}
	if got := s.Pop(cpu); got != cpuOnly {
		t.Errorf("CPU pop = %v, want the CPU-only task", got)
	}
	gpu := runtime.WorkerInfo{ID: 1, Arch: platform.ArchGPU}
	if got := s.Pop(gpu); got != gpuOnly {
		t.Errorf("GPU pop = %v, want the GPU-only task", got)
	}
}

// buildGraph is a mixed-affinity random DAG with commuting accesses —
// the same structural features the conformance suite exercises.
func buildGraph(m *platform.Machine) *runtime.Graph {
	return randdag.Build(randdag.Params{Layers: 8, Width: 10, CommuteShare: 0.3,
		Machine: m, Seed: 17})
}

// TestSimOracleAndDeterminism runs the policy end to end on the
// simulator, validates the full trace (including the memory-event
// stream) against the execution oracle, and checks that the same seed
// reproduces the trace byte for byte.
func TestSimOracleAndDeterminism(t *testing.T) {
	m, err := platform.NewHeteroNode("conf", 5, 10, 2, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*runtime.Graph, *sim.Result) {
		g := buildGraph(m)
		res, err := sim.Run(m, g, New(), runtime.WithMemEvents())
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		return g, res
	}
	g, res := run()
	if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	_, res2 := run()
	if !bytes.Equal(res.Trace.Canonical(), res2.Trace.Canonical()) {
		t.Fatalf("same seed produced a different trace")
	}
}

// TestThreadedOracle runs the policy on the goroutine engine under the
// same oracle (dependency and commute-exclusivity checks on wall-clock
// stamps).
func TestThreadedOracle(t *testing.T) {
	m, err := platform.NewHeteroNode("conf", 5, 10, 2, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(m)
	eng, err := runtime.NewThreadedEngine(m, New())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatalf("threaded run: %v", err)
	}
	if err := oracle.Check(g, res.Trace, oracle.Options{}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}
