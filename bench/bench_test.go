// Package bench holds the hot-path micro-benchmark suite that seeds the
// performance trajectory (BENCH_sweep.json). Unlike the repo-root
// benchmarks, which regenerate whole paper artifacts, these isolate the
// per-operation costs the optimization work targets: heap operations,
// MultiPrio PUSH/POP, Dmdas PUSH, the simulator event loop, and STF
// dependency inference.
//
// Every benchmark does a fixed batch of work per iteration (a whole
// graph pushed, a whole heap drained), so a single iteration is already
// a meaningful sample: CI runs the suite with `-benchtime=1x -count=3`
// and gates on the machine-independent allocation counts via
// cmd/benchjson (see .github/workflows/ci.yml).
//
// Refresh the committed baseline after intentional performance changes:
//
//	go test ./bench -bench . -benchmem -run '^$' -count=3 | go run ./cmd/benchjson -o bench/baseline.json
package bench

import (
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/core"
	"multiprio/internal/heap"
	"multiprio/internal/obs"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sched/heft"
	"multiprio/internal/sim"
	"multiprio/internal/telemetry"
)

// benchGraph builds the shared mid-size Cholesky DAG (Tiles=12 is 364
// tasks) on the paper's Intel+V100 platform.
func benchGraph() (*platform.Machine, *runtime.Graph) {
	m := platform.IntelV100(platform.Config{})
	g := dense.Cholesky(dense.Params{Tiles: 12, TileSize: 960, Machine: m, UserPriorities: true})
	return m, g
}

// workerInfos lists every processing unit as scheduler-visible worker.
func workerInfos(m *platform.Machine) []runtime.WorkerInfo {
	ws := make([]runtime.WorkerInfo, len(m.Units))
	for i, u := range m.Units {
		ws[i] = runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
	}
	return ws
}

// xorshift is a tiny deterministic score source (no math/rand needed).
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// BenchmarkHeapOps measures the indexed max-heap on a mixed workload:
// 8192 pushes, score updates on half of them, removal of a quarter by
// identity, then a full drain.
func BenchmarkHeapOps(b *testing.B) {
	const n = 8192
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := heap.New(n)
		s := uint64(i + 1)
		for id := int64(0); id < n; id++ {
			s = xorshift(s)
			h.Push(id, heap.Score{Primary: float64(s % 1000), Secondary: float64(id)})
		}
		for id := int64(0); id < n; id += 2 {
			s = xorshift(s)
			h.Update(id, heap.Score{Primary: float64(s % 1000), Secondary: float64(id)})
		}
		for id := int64(0); id < n; id += 4 {
			h.Remove(id)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}

// BenchmarkHeapTopN measures the bounded non-mutating top-n scan POP
// runs on every idle worker wake-up (n=10, the paper's setting).
func BenchmarkHeapTopN(b *testing.B) {
	const n = 2048
	h := heap.New(n)
	s := uint64(7)
	for id := int64(0); id < n; id++ {
		s = xorshift(s)
		h.Push(id, heap.Score{Primary: float64(s % 1000), Secondary: float64(id)})
	}
	var buf []heap.ScoredID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 512; k++ {
			buf = h.TopNScored(buf[:0], 10)
		}
	}
	if len(buf) != 10 {
		b.Fatalf("TopNScored returned %d candidates", len(buf))
	}
}

// BenchmarkMultiPrioPush measures Algorithm 1 alone: scoring and
// inserting every task of the Cholesky DAG into the per-node heaps.
func BenchmarkMultiPrioPush(b *testing.B) {
	m, g := benchGraph()
	env := runtime.NewEnv(m, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.ResetRun()
		b.StartTimer()
		s := core.New(core.Defaults())
		s.Init(env)
		for _, t := range g.Tasks {
			s.Push(t)
		}
	}
}

// BenchmarkMultiPrioPushPop measures the full PUSH + locality-aware POP
// cycle: the whole DAG is pushed, then drained by round-robin worker
// pops (exercising LS_SDH², the pop condition and eviction).
func BenchmarkMultiPrioPushPop(b *testing.B) {
	m, g := benchGraph()
	env := runtime.NewEnv(m, g)
	workers := workerInfos(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.ResetRun()
		b.StartTimer()
		s := core.New(core.Defaults())
		s.Init(env)
		for _, t := range g.Tasks {
			s.Push(t)
		}
		popped := 0
		for progress := true; progress; {
			progress = false
			for _, w := range workers {
				if t := s.Pop(w); t != nil {
					s.TaskDone(t, w)
					popped++
					progress = true
				}
			}
		}
		if popped != len(g.Tasks) {
			b.Fatalf("drained %d of %d tasks", popped, len(g.Tasks))
		}
	}
}

// BenchmarkMultiPrioPushPopObserved is BenchmarkMultiPrioPushPop with a
// realistic probe attached (decision log + metrics recorder fanned out
// through obs.Multi). The delta against the unobserved benchmark is the
// cost of observation; the unobserved benchmark itself, gated against
// the committed baseline, proves the nil-probe path stayed free.
func BenchmarkMultiPrioPushPopObserved(b *testing.B) {
	m, g := benchGraph()
	env := runtime.NewEnv(m, g)
	workers := workerInfos(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.ResetRun()
		env.Probe = obs.Multi{&obs.DecisionLog{}, obs.NewMetrics()}
		b.StartTimer()
		s := core.New(core.Defaults())
		s.Init(env)
		for _, t := range g.Tasks {
			s.Push(t)
		}
		popped := 0
		for progress := true; progress; {
			progress = false
			for _, w := range workers {
				if t := s.Pop(w); t != nil {
					s.TaskDone(t, w)
					popped++
					progress = true
				}
			}
		}
		if popped != len(g.Tasks) {
			b.Fatalf("drained %d of %d tasks", popped, len(g.Tasks))
		}
	}
}

// BenchmarkDmdasPush measures the HEFT mapping step: minimum expected
// completion time over every worker, including transfer estimates.
func BenchmarkDmdasPush(b *testing.B) {
	m, g := benchGraph()
	env := runtime.NewEnv(m, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.ResetRun()
		b.StartTimer()
		s := dmdas.New(dmdas.DMDAS)
		s.Init(env)
		for _, t := range g.Tasks {
			s.Push(t)
		}
	}
}

// BenchmarkSimEventLoop measures the discrete-event simulator end to
// end on the shared DAG with the trivial eager policy, so the event
// queue and the memory manager dominate over scheduling heuristics.
func BenchmarkSimEventLoop(b *testing.B) {
	m, g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.ResetRun()
		b.StartTimer()
		if _, err := sim.Run(m, g, eager.New()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEventLoopObserved is BenchmarkSimEventLoop with the full
// probe stack attached: engine progress counters, memory-manager usage
// and eviction tracks, and transfer-queue depth all flow into a metrics
// recorder plus a decision log.
func BenchmarkSimEventLoopObserved(b *testing.B) {
	m, g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.ResetRun()
		probe := obs.Multi{&obs.DecisionLog{}, obs.NewMetrics()}
		b.StartTimer()
		if _, err := sim.Run(m, g, eager.New(), runtime.WithProbe(probe)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEventLoopTelemetry is BenchmarkSimEventLoop with the
// production telemetry probe attached as the run observer, the way
// `multiprio-bench -serve` runs: one long-lived probe accumulating
// histograms across runs. The delta against BenchmarkSimEventLoop is
// the full cost of live telemetry; BenchmarkSimEventLoop itself, gated
// against the committed baseline, proves the nil-observer path did not
// pick up a single allocation from the telemetry layer.
func BenchmarkSimEventLoopTelemetry(b *testing.B) {
	m, g := benchGraph()
	p := telemetry.NewProbe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.ResetRun()
		b.StartTimer()
		if _, err := sim.Run(m, g, eager.New(), runtime.WithObserver(p)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryTaskDone isolates the probe's hottest operation:
// one TaskDone decision (two histogram observations, a completion
// counter, a busy-seconds accumulation, a kind counter). The gate pins
// this at zero allocations per op — every label handle is resolved at
// RunStart, so steady-state recording is pure atomics.
func BenchmarkTelemetryTaskDone(b *testing.B) {
	m, _ := benchGraph()
	p := telemetry.NewProbe()
	p.RunStart(runtime.RunInfo{Machine: m, Tasks: 1, Scheduler: "bench", Engine: "sim"})
	d := obs.Decision{Kind: obs.TaskDone, At: 2, A: 1, B: 0.5, Worker: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Task = int64(i)
		p.Decision(d)
	}
}

// BenchmarkTelemetryCounterTrack isolates the probe's Counter path: a
// bracketed gauge track ("mem.used[gpu0]") projected into a labeled
// family. Steady-state cost is one map hit under RLock plus an atomic
// store; the gate pins it at zero allocations per op.
func BenchmarkTelemetryCounterTrack(b *testing.B) {
	p := telemetry.NewProbe()
	p.Counter("mem.used[gpu0]", 0, 0, 0) // materialize the instance
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Counter("mem.used[gpu0]", float64(i), int64(i), float64(i%4096))
	}
}

// BenchmarkSTFSubmit measures sequential-task-flow dependency
// inference: building the Cholesky DAG from scratch, dominated by
// Graph.Submit's read/write dependency resolution.
func BenchmarkSTFSubmit(b *testing.B) {
	m := platform.IntelV100(platform.Config{})
	p := dense.Params{Tiles: 12, TileSize: 960, Machine: m}
	b.ReportAllocs()
	b.ResetTimer() // the machine's own allocations are not the build's
	for i := 0; i < b.N; i++ {
		g := dense.Cholesky(p)
		if len(g.Tasks) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// scaleParams is the 10^5-task random DAG of the scaling study
// (`multiprio-bench -exp scale`): 2000 layers of 50 tasks.
func scaleParams(m *platform.Machine) randdag.Params {
	return randdag.Params{Layers: 2000, Width: 50, EdgeProb: 0.1, Machine: m, Seed: 42}
}

// BenchmarkSubmitBatch1e5 measures graph construction alone at the
// scaling study's 10^5-task size: arena-backed SubmitBatch plus
// epoch-deduplicated dependency inference. Reports build throughput as
// tasks/s (gated downward by benchjson with -throughput-threshold).
func BenchmarkSubmitBatch1e5(b *testing.B) {
	m := platform.IntelV100(platform.Config{})
	p := scaleParams(m)
	b.ReportAllocs()
	b.ResetTimer()
	var tasks int
	for i := 0; i < b.N; i++ {
		g := randdag.Build(p)
		if len(g.Tasks) == 0 {
			b.Fatal("empty graph")
		}
		tasks += len(g.Tasks)
	}
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkSimThroughput1e5 is the million-task hot path's regression
// anchor: the full simulator (calendar event queue, arena task blocks,
// intrusive-LRU memory manager) executing the 10^5-task random DAG
// under the eager policy, so engine mechanics dominate over scheduling
// heuristics. Reports end-to-end execution throughput as tasks/s.
func BenchmarkSimThroughput1e5(b *testing.B) {
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(scaleParams(m))
	b.ReportAllocs()
	b.ResetTimer()
	var tasks int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.ResetRun()
		b.StartTimer()
		res, err := sim.Run(m, g, eager.New(), runtime.WithSeed(7))
		if err != nil {
			b.Fatal(err)
		}
		if res.Makespan <= 0 {
			b.Fatal("degenerate makespan")
		}
		tasks += len(g.Tasks)
	}
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkHEFTPlan1e4 measures static-plan construction throughput:
// a full HEFT pass (upward ranks, EFT insertion over every unit, order
// extraction) over a 10^4-task random DAG. One iteration builds one
// complete plan; reports planning throughput as tasks/s.
func BenchmarkHEFTPlan1e4(b *testing.B) {
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(randdag.Params{Layers: 200, Width: 50, EdgeProb: 0.1, Machine: m, Seed: 42})
	env := runtime.NewEnv(m, g)
	b.ReportAllocs()
	b.ResetTimer()
	var tasks int
	for i := 0; i < b.N; i++ {
		p, err := heft.BuildPlan(env, heft.RankUpward)
		if err != nil {
			b.Fatal(err)
		}
		if p.Makespan <= 0 {
			b.Fatal("degenerate plan")
		}
		tasks += len(g.Tasks)
	}
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}
