package schedtest

import (
	"bytes"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/core"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sched/heteroprio"
	"multiprio/internal/sched/lws"
	"multiprio/internal/sched/prio"
	"multiprio/internal/sim"
)

// policies lists every scheduler with a constructor, so each run gets a
// fresh instance (schedulers keep per-run state).
var policies = []struct {
	name string
	mk   func() runtime.Scheduler
}{
	{"multiprio", func() runtime.Scheduler { return core.New(core.Defaults()) }},
	{"dm", func() runtime.Scheduler { return dmdas.New(dmdas.DM) }},
	{"dmda", func() runtime.Scheduler { return dmdas.New(dmdas.DMDA) }},
	{"dmdas", func() runtime.Scheduler { return dmdas.New(dmdas.DMDAS) }},
	{"heteroprio", func() runtime.Scheduler { return heteroprio.New() }},
	{"lws", func() runtime.Scheduler { return lws.New() }},
	{"prio", func() runtime.Scheduler { return prio.New() }},
	{"eager", func() runtime.Scheduler { return eager.New() }},
}

// conformanceMachine is deliberately memory-starved (8 MiB per GPU)
// so the workloads below overflow device memory and the oracle's
// coherence replay exercises eviction, writeback and capacity
// accounting, not just the happy path.
func conformanceMachine() *platform.Machine {
	m, err := platform.NewHeteroNode("conf", 5, 10, 2, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		panic(err)
	}
	return m
}

// conformanceWorkloads returns one graph builder per application family
// of the paper, sized to run every scheduler in a few milliseconds of
// simulated work while still covering each structural feature: dense
// tiled factorization (wide dependency fan-out), FMM with commute-mode
// accumulations, irregular multifrontal sparse QR, and a random layered
// DAG mixing plain and commuting accesses.
func conformanceWorkloads(m *platform.Machine) []struct {
	name  string
	build func() *runtime.Graph
} {
	return []struct {
		name  string
		build func() *runtime.Graph
	}{
		{"cholesky", func() *runtime.Graph {
			return dense.Cholesky(dense.Params{Tiles: 6, TileSize: 256, Machine: m, UserPriorities: true})
		}},
		{"fmm", func() *runtime.Graph {
			return fmm.Build(fmm.Params{Particles: 2000, Height: 3, GroupSize: 8,
				Clustered: true, UseCommute: true, Machine: m, Seed: 5})
		}},
		{"sparseqr", func() *runtime.Graph {
			stats, ok := sparseqr.ByName("cat_ears_4_4")
			if !ok {
				panic("sparseqr: matrix cat_ears_4_4 missing")
			}
			return sparseqr.Build(stats, sparseqr.Params{Machine: m, PanelWidth: 512, RowBlock: 4096})
		}},
		{"randdag", func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: 8, Width: 10, CommuteShare: 0.3,
				Machine: m, Seed: 17})
		}},
	}
}

// TestConformanceSimEngine runs every scheduler over every workload on
// the simulator, validates the full trace (including the memory-event
// stream) against the execution oracle, and checks determinism: a
// rebuilt graph and a fresh scheduler under the same seed must
// reproduce the trace byte for byte.
func TestConformanceSimEngine(t *testing.T) {
	m := conformanceMachine()
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				run := func() (*runtime.Graph, *sim.Result) {
					g := w.build()
					res, err := sim.Run(m, g, pol.mk(), runtime.WithMemEvents())
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
					t.Fatalf("same seed produced a different trace (%d vs %d bytes)",
						len(res.Trace.Canonical()), len(res2.Trace.Canonical()))
				}
			})
		}
	}
}

// TestConformanceThreadedEngine runs every scheduler over every
// workload on the real goroutine engine (kernels are no-ops; the graphs
// carry cost models, not code) and validates the execution records in
// the result's trace through the same oracle. Wall-clock stamps are
// monotonic, so dependency and serialization checks hold with zero
// tolerance; there is no memory-event stream to replay.
func TestConformanceThreadedEngine(t *testing.T) {
	m := conformanceMachine()
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				g := w.build()
				eng, err := runtime.NewThreadedEngine(m, pol.mk())
				if err != nil {
					t.Fatalf("NewThreadedEngine: %v", err)
				}
				res, err := eng.Run(g)
				if err != nil {
					t.Fatalf("threaded run: %v", err)
				}
				if err := oracle.Check(g, res.Trace, oracle.Options{}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if res.Makespan != res.Trace.Makespan {
					t.Errorf("Result.Makespan %v is not the trace's %v", res.Makespan, res.Trace.Makespan)
				}
			})
		}
	}
}
