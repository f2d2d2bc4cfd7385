package schedtest

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

// faultScenarios are the fault mixes every scheduler must survive.
// Counts are relative to the fault-free makespan measured per workload.
var faultScenarios = []struct {
	name string
	spec fault.Spec
}{
	{"kills", fault.Spec{Seed: 41, Kills: 2}},
	{"mixed", fault.Spec{Seed: 42, Kills: 1, Slowdowns: 2, TransferFaults: 2, ModelNoise: 0.15}},
}

// faultWorkloads: one regular and one irregular family keep the
// scheduler × scenario product tractable.
func faultWorkloads(m *platform.Machine) []struct {
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
		{"randdag", func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: 8, Width: 10, CommuteShare: 0.3,
				Machine: m, Seed: 17})
		}},
	}
}

// TestFaultConformanceSimEngine runs every scheduler over each workload
// under each fault scenario on the simulator: the run must complete,
// satisfy the oracle's exactly-once-effective rule under strict (abort
// semantics) kill checks, and reproduce the canonical trace — failed
// spans, failed transfers, memory events and all — byte for byte under
// the same seed. The canonical SHA-256 comparison is the PR's
// determinism contract: same seed + same plan ⇒ byte-identical trace.
func TestFaultConformanceSimEngine(t *testing.T) {
	m := conformanceMachine()
	for _, w := range faultWorkloads(m) {
		for _, sc := range faultScenarios {
			for _, pol := range policies {
				w, sc, pol := w, sc, pol
				t.Run(w.name+"/"+sc.name+"/"+pol.name, func(t *testing.T) {
					t.Parallel()
					base, err := sim.Run(m, w.build(), pol.mk())
					if err != nil {
						t.Fatalf("fault-free baseline: %v", err)
					}
					spec := sc.spec
					spec.Horizon = base.Makespan
					plan := fault.Generate(m, spec)
					run := func() (*runtime.Graph, *sim.Result) {
						g := w.build()
						res, err := sim.Run(m, g, pol.mk(),
							runtime.WithMemEvents(),
							runtime.WithFaultPlan(plan))
						if err != nil {
							t.Fatalf("fault run: %v", err)
						}
						return g, res
					}
					g, res := run()
					if err := oracle.Check(g, res.Trace, oracle.Options{
						OverflowBytes: res.OverflowBytes,
						Faults: &oracle.FaultCheck{
							MaxRetries: plan.RetryCap(),
							Kills:      res.Faults.AppliedKills,
							Strict:     true,
						},
					}); err != nil {
						t.Fatalf("oracle: %v", err)
					}
					if err := checkRunState(res); err != nil {
						t.Fatalf("run state: %v", err)
					}
					if got, want := res.Faults.Kills, len(plan.Kills()); got != want {
						t.Errorf("applied %d kills, plan has %d", got, want)
					}
					_, res2 := run()
					h1 := sha256.Sum256(res.Trace.Canonical())
					h2 := sha256.Sum256(res2.Trace.Canonical())
					if h1 != h2 {
						t.Fatalf("canonical trace hash differs across identical fault runs:\n%x\n%x", h1, h2)
					}
				})
			}
		}
	}
}

// TestFaultConformanceThreadedEngine drives every scheduler through
// kill and slowdown recovery on the goroutine engine (run under -race
// in CI). Kernels sleep ~1ms so the wall-clock kill timers land while
// work is in flight; the oracle checks completion-discard semantics
// (Strict off: a kernel may be observed finishing after the kill
// instant, its completion is simply discarded).
func TestFaultConformanceThreadedEngine(t *testing.T) {
	m := conformanceMachine()
	plan := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.KillWorker, Worker: 1, At: 0.003},
			{Kind: fault.KillWorker, Worker: 4, At: 0.005},
			{Kind: fault.SlowWorker, Worker: 2, At: 0, Until: 10, Factor: 2},
		},
		Backoff: 1e-4,
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			g := runtime.NewGraph()
			for i := 0; i < 40; i++ {
				g.Submit(runtime.TaskSpec{Kind: "work", Cost: []float64{0.001, 0.001},
					Run: func(w runtime.WorkerInfo) { time.Sleep(time.Millisecond) }})
			}
			eng, err := runtime.NewThreadedEngine(m, pol.mk(), runtime.WithFaultPlan(plan))
			if err != nil {
				t.Fatalf("NewThreadedEngine: %v", err)
			}
			res, err := eng.Run(g)
			if err != nil {
				t.Fatalf("threaded fault run: %v", err)
			}
			if res.Faults.Kills != 2 {
				t.Errorf("kills = %d, want 2", res.Faults.Kills)
			}
			if err := oracle.Check(g, res.Trace, oracle.Options{
				Faults: &oracle.FaultCheck{
					MaxRetries: plan.RetryCap(),
					Kills:      res.Faults.AppliedKills,
				},
			}); err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if err := checkRunState(res); err != nil {
				t.Fatalf("run state: %v", err)
			}
		})
	}
}

// FuzzFaultConformance searches for (workload, scheduler, fault mix)
// triples that break recovery: a completed run that fails the oracle,
// a run that errors out despite the plan leaving every architecture a
// live worker, or nondeterminism under a fixed seed.
func FuzzFaultConformance(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(8), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(int64(2), uint8(4), uint8(10), uint8(2), uint8(0), uint8(2), uint8(3))
	f.Add(int64(3), uint8(8), uint8(6), uint8(2), uint8(2), uint8(0), uint8(4))
	f.Add(int64(4), uint8(3), uint8(12), uint8(0), uint8(2), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, layers, width, kills, slows, xfails, schedIdx uint8) {
		m := conformanceMachine()
		build := func() *runtime.Graph {
			return randdag.Build(randdag.Params{
				Layers:       1 + int(layers%8),
				Width:        1 + int(width%12),
				CommuteShare: 0.3,
				MeanCost:     1e-3,
				Machine:      m,
				Seed:         seed,
			})
		}
		pol := policies[int(schedIdx)%len(policies)]
		base, err := sim.Run(m, build(), pol.mk(), runtime.WithMaxEvents(2_000_000))
		if err != nil {
			t.Fatalf("%s failed the fault-free baseline: %v", pol.name, err)
		}
		plan := fault.Generate(m, fault.Spec{
			Seed:           uint64(seed) * 0x9e3779b9,
			Horizon:        base.Makespan,
			Kills:          int(kills % 3),
			Slowdowns:      int(slows % 3),
			TransferFaults: int(xfails % 3),
			ModelNoise:     float64(seed%5) * 0.05,
		})
		run := func() (*runtime.Graph, *sim.Result) {
			g := build()
			res, err := sim.Run(m, g, pol.mk(),
				runtime.WithMemEvents(),
				runtime.WithFaultPlan(plan),
				runtime.WithMaxEvents(4_000_000))
			if err != nil {
				t.Fatalf("%s failed to recover: %v", pol.name, err)
			}
			return g, res
		}
		g, res := run()
		if err := oracle.Check(g, res.Trace, oracle.Options{
			OverflowBytes: res.OverflowBytes,
			Faults: &oracle.FaultCheck{
				MaxRetries: plan.RetryCap(),
				Kills:      res.Faults.AppliedKills,
				Strict:     true,
			},
		}); err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		if err := checkRunState(res); err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		_, res2 := run()
		if !bytes.Equal(res.Trace.Canonical(), res2.Trace.Canonical()) {
			t.Fatalf("%s: same seed and plan, different canonical traces", pol.name)
		}
	})
}
