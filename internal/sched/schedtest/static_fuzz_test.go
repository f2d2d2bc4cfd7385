package schedtest

import (
	"bytes"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/heft"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"
)

// staticFallbacks are the dynamic policies the fuzzer rotates through
// as hybrid-repair fallbacks, via the registry's Fallback knob.
var staticFallbacks = []string{"multiprio", "eager", "dmdas", "lws"}

// FuzzStaticConformance searches for (plan shape, typed fraction, fault
// mix, fallback policy) combinations that break static replay: a
// completed run failing the full oracle including StaticCheck, a hybrid
// run stranded despite a live worker per architecture, or
// nondeterminism under a fixed seed. Pure static runs mask kills to
// zero — a stranded frontier is its *specified* behaviour under kills,
// exercised deterministically in the engine tests.
func FuzzStaticConformance(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(8), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(4), uint8(10), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Add(int64(3), uint8(8), uint8(6), uint8(2), uint8(2), uint8(2), uint8(2), uint8(2))
	f.Add(int64(4), uint8(3), uint8(12), uint8(1), uint8(0), uint8(2), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, layers, width, typed, kills, slows, fbSel, algSel uint8) {
		m := conformanceMachine()
		build := func() *runtime.Graph {
			return randdag.Build(randdag.Params{
				Layers:        1 + int(layers%8),
				Width:         1 + int(width%12),
				CommuteShare:  0.3,
				TypedFraction: float64(typed%3) * 0.25,
				MeanCost:      1e-3,
				Machine:       m,
				Seed:          seed,
			})
		}
		hybrid := algSel%4 >= 2
		algName := "heft"
		if algSel%2 == 1 {
			algName = "heft-oft"
		}
		nKills := int(kills % 3)
		if !hybrid {
			nKills = 0
		}
		mk := func() *heft.Sched {
			name := algName
			if hybrid {
				name += "-hybrid"
			}
			s, err := registry.New(name, registry.Options{
				Fallback: staticFallbacks[int(fbSel)%len(staticFallbacks)],
			})
			if err != nil {
				t.Fatalf("registry: %v", err)
			}
			return s.(*heft.Sched)
		}

		probe := heft.NewStatic(heft.RankUpward)
		probe.Init(runtime.NewEnv(m, build()))
		plan := fault.Generate(m, fault.Spec{
			Seed:       uint64(seed)*0x9e3779b9 + uint64(typed),
			Horizon:    probe.Plan().Makespan,
			Kills:      nKills,
			Slowdowns:  int(slows % 3),
			ModelNoise: float64(seed%4) * 0.05,
		})
		run := func() (*runtime.Graph, *sim.Result, *heft.Sched) {
			g := build()
			hs := mk()
			res, err := sim.Run(m, g, hs,
				runtime.WithMemEvents(),
				runtime.WithFaultPlan(plan),
				runtime.WithMaxEvents(4_000_000))
			if err != nil {
				t.Fatalf("%s: %v", hs.Name(), err)
			}
			return g, res, hs
		}
		g, res, hs := run()
		opts := oracle.Options{
			OverflowBytes: res.OverflowBytes,
			Static:        oracle.StaticCheckFor(hs, res.Faults.AppliedKills),
		}
		if !plan.Empty() {
			opts.Faults = &oracle.FaultCheck{
				MaxRetries: plan.RetryCap(),
				Kills:      res.Faults.AppliedKills,
				Strict:     true,
			}
		}
		if err := oracle.Check(g, res.Trace, opts); err != nil {
			t.Fatalf("%s: %v", hs.Name(), err)
		}
		if err := checkRunState(res); err != nil {
			t.Fatalf("%s: %v", hs.Name(), err)
		}
		_, res2, _ := run()
		if !bytes.Equal(res.Trace.Canonical(), res2.Trace.Canonical()) {
			t.Fatalf("%s: same seed and plan, different canonical traces", hs.Name())
		}
	})
}
