package main

// abi.go is the only file of the benchmark that names a package under
// multiprio/internal. Everything else talks to the system through the
// aliases and helpers below, so a refactor of the runtime (one run
// core, frozen graph, observation spine) has exactly one file to keep
// compiling — and may not need to touch even that, because only the
// validating constructors and functional options are used: no
// sim.Run(..., sim.Options{}), no &ThreadedEngine{} literal, no
// Graph.ResetRun, no Task.SchedData, no obs track-name strings.

import (
	"fmt"
	"io"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/heap"
	"multiprio/internal/obs"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	mprt "multiprio/internal/runtime"
	_ "multiprio/internal/sched/all"
	"multiprio/internal/sched/heft"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"
	"multiprio/internal/telemetry"
	"multiprio/internal/trace"
)

type (
	Machine    = platform.Machine
	Graph      = mprt.Graph
	Task       = mprt.Task
	Env        = mprt.Env
	WorkerInfo = mprt.WorkerInfo
	Scheduler  = mprt.Scheduler
	Engine     = mprt.Engine
	Result     = mprt.Result
	EngineOpt  = mprt.Option
)

// simSeed is the simulator's own seed, the one `-exp scale` uses.
// Kernel noise is off, so simulated quantities depend on the generated
// graph alone.
const simSeed = 7

func machineByName(name string, units int) (*Machine, error) {
	switch name {
	case "intel-v100":
		return platform.IntelV100(platform.Config{}), nil
	case "smallsim":
		return platform.SmallSim(platform.Config{}), nil
	case "cpus":
		return platform.NUMANode(1, units, 0), nil
	}
	return nil, fmt.Errorf("unknown machine %q", name)
}

func buildRanddag(m *Machine, layers, width int, seed int64) *Graph {
	return randdag.Build(randdag.Params{Layers: layers, Width: width, EdgeProb: 0.1, Machine: m, Seed: seed})
}

func buildCholesky(m *Machine, tiles, tileSize int) *Graph {
	return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: tileSize, Machine: m, UserPriorities: true})
}

func buildCholeskyKernels(m *Machine, tiles, tileSize int, seed int64) (*Graph, func(tol float64) error) {
	return dense.CholeskyWithKernels(dense.Params{Tiles: tiles, TileSize: tileSize, Machine: m}, seed)
}

func newPolicy(name string) (Scheduler, error) {
	return registry.New(name, registry.Options{})
}

func newSimEngine(m *Machine, s Scheduler, opts ...EngineOpt) (Engine, error) {
	return sim.NewEngine(m, s, append([]EngineOpt{mprt.WithSeed(simSeed)}, opts...)...)
}

func newThreadedEngine(m *Machine, s Scheduler, opts ...EngineOpt) (Engine, error) {
	return mprt.NewThreadedEngine(m, s, opts...)
}

// Engine options of the check run and of the observer-cost layers.
func optTransferSpans() EngineOpt { return mprt.WithTransferSpans() }
func optMemEvents() EngineOpt     { return mprt.WithMemEvents() }
func optTelemetryProbe() EngineOpt {
	return mprt.WithObserver(telemetry.NewProbe())
}
func optDecisionLog() EngineOpt {
	return mprt.WithProbe(obs.Multi{&obs.DecisionLog{}, obs.NewMetrics()})
}

// resultFacts is what the benchmark reads off a Result.
type resultFacts struct {
	makespan float64
	events   int64
	spans    int
	workers  int
	busy     float64 // Σ WorkerStat.Busy
}

func factsOf(res *Result) resultFacts {
	f := resultFacts{makespan: res.Makespan, events: res.Events, spans: len(res.Trace.Spans), workers: len(res.Workers)}
	for _, w := range res.Workers {
		f.busy += w.Busy
	}
	return f
}

func writeCanonical(res *Result, w io.Writer) error { return res.Trace.WriteCanonical(w) }

// memFacts summarises the memory manager's work in a check run.
type memFacts struct {
	events, allocs, frees, transfers       int64
	fetchB, prefetchB, writebackB, overflB int64
}

func memFactsOf(res *Result) memFacts {
	tr := res.Trace
	f := memFacts{events: int64(len(tr.MemEvents)), transfers: int64(len(tr.Xfers))}
	for _, e := range tr.MemEvents {
		switch e.Kind {
		case trace.MemAlloc:
			f.allocs++
		case trace.MemFree:
			f.frees++
		}
	}
	f.fetchB, f.prefetchB, f.writebackB = tr.TransferredBytes()
	for _, b := range res.OverflowBytes {
		f.overflB += b
	}
	return f
}

// oracleCheck validates a finished run. The coherence and capacity
// replay runs whenever the trace carries memory events.
func oracleCheck(g *Graph, res *Result) error {
	return oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes})
}

func graphEdges(g *Graph) int {
	n := 0
	for _, t := range g.Tasks {
		n += len(t.Succs())
	}
	return n
}

func newEnv(m *Machine, g *Graph) *Env { return mprt.NewEnv(m, g) }

func workersOf(m *Machine) []WorkerInfo {
	ws := make([]WorkerInfo, len(m.Units))
	for i, u := range m.Units {
		ws[i] = WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
	}
	return ws
}

// deltaSweep calls Env.Delta for every task on every architecture and
// returns the number of lookups.
func deltaSweep(env *Env) (calls int, sink float64) {
	for _, t := range env.Graph.Tasks {
		for a := range env.Machine.Archs {
			if d := env.Delta(t, platform.ArchID(a)); d < 1e300 {
				sink += d
			}
			calls++
		}
	}
	return calls, sink
}

func heftPlan(env *Env) error {
	_, err := heft.BuildPlan(env, heft.RankUpward)
	return err
}

// heapOps pushes n scored ids, updates each once, and pops them all:
// 3n heap operations. Scores come from a fixed LCG so every run sorts
// the same sequence.
func heapOps(n int) (ops int) {
	h := heap.New(n)
	x := uint64(88172645463325252)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / (1 << 53)
	}
	for i := 0; i < n; i++ {
		h.Push(int64(i), heap.Score{Primary: next(), Secondary: next()})
	}
	for i := 0; i < n; i++ {
		h.Update(int64(i), heap.Score{Primary: next(), Secondary: next()})
	}
	for h.Len() > 0 {
		h.Pop()
	}
	return 3 * n
}

// heapTopN builds a heap of n ids and runs calls top-k scans over it.
func heapTopN(n, k, calls int) {
	h := heap.New(n)
	for i := 0; i < n; i++ {
		h.Push(int64(i), heap.Score{Primary: float64((i * 7919) % n), Secondary: float64(i)})
	}
	var dst []int64
	for i := 0; i < calls; i++ {
		dst = h.TopN(dst[:0], k)
	}
}

// layeredShape is the benchmark's own description of a layered DAG in
// the shape of the randdag workloads, free of handles so it can be
// generated before the graph exists.
type layeredShape struct {
	archs int
	bytes []int64   // one output handle per task
	cost  []float64 // CPU cost per task
	reads [][]int32 // handle indices each task reads (previous layer)
}

// submitShape materialises the shape through the batch graph API:
// NewGraphWithCapacity + NewData + SubmitBatch. pause and resume bracket
// the assembly of the spec slice, which needs the handles and so sits
// between the two, so the caller can keep it out of its timing.
func submitShape(sh *layeredShape, pause, resume func()) *Graph {
	n := len(sh.cost)
	g := mprt.NewGraphWithCapacity(n, n)
	hs := make([]*mprt.DataHandle, n)
	for i := range hs {
		hs[i] = g.NewData("d", sh.bytes[i])
	}
	pause()
	specs := make([]mprt.TaskSpec, n)
	for i := range specs {
		acc := make([]mprt.Access, 0, 1+len(sh.reads[i]))
		acc = append(acc, mprt.Access{Handle: hs[i], Mode: mprt.W})
		for _, r := range sh.reads[i] {
			acc = append(acc, mprt.Access{Handle: hs[r], Mode: mprt.R})
		}
		cost := make([]float64, sh.archs)
		cost[platform.ArchCPU] = sh.cost[i]
		specs[i] = mprt.TaskSpec{Kind: "host", Footprint: 10, Flops: sh.cost[i] * 1e9, Cost: cost, Accesses: acc}
	}
	resume()
	g.SubmitBatch(specs)
	return g
}
