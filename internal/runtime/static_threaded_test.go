package runtime_test

import (
	"errors"
	"testing"
	"time"

	"multiprio/internal/core"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/heft"
)

// staticChains builds chains of sleeping kernels whose modeled cost
// matches the sleep, so the static plan's timeline tracks wall-clock
// execution closely enough for replay.
func staticChains(chains, length int, d time.Duration) *runtime.Graph {
	g := runtime.NewGraph()
	for c := 0; c < chains; c++ {
		h := g.NewData("chain", 4096)
		for i := 0; i < length; i++ {
			g.SubmitBatch([]runtime.TaskSpec{{
				Kind:     "work",
				Cost:     []float64{d.Seconds()},
				Flops:    1,
				Accesses: []runtime.Access{{Handle: h, Mode: runtime.RW}},
				Run:      func(w runtime.WorkerInfo) { time.Sleep(d) },
			}})
		}
	}
	return g
}

// TestThreadedStaticCriticalKill mirrors the simulator test on the
// wall-clock engine: killing the worker that owns the static critical
// path strands pure replay (ErrStarved), while hybrid completes with a
// justified repair log the oracle accepts.
func TestThreadedStaticCriticalKill(t *testing.T) {
	const d = 2 * time.Millisecond
	m := platform.CPUOnly(3)

	probe := heft.NewStatic(heft.RankUpward)
	probe.Init(runtime.NewEnv(m, staticChains(4, 6, d)))
	plan := probe.Plan()
	cw := plan.CriticalWorker()

	cases := []struct {
		name   string
		sched  func() *heft.Sched
		strand bool
	}{
		{"static", func() *heft.Sched { return heft.NewStatic(heft.RankUpward) }, true},
		{"hybrid", func() *heft.Sched { return heft.NewHybrid(heft.RankUpward, core.New(core.Defaults())) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fp := &fault.Plan{
				Events:  []fault.Event{{Kind: fault.KillWorker, Worker: cw, At: 0.3 * plan.Makespan}},
				Backoff: 1e-4,
			}
			hs := tc.sched()
			eng, err := runtime.NewThreadedEngine(m, hs, runtime.WithFaultPlan(fp))
			if err != nil {
				t.Fatal(err)
			}
			g := staticChains(4, 6, d)
			res, err := eng.Run(g)
			if tc.strand {
				if err == nil {
					t.Fatal("static replay survived the critical-worker kill")
				}
				if !errors.Is(err, runtime.ErrStarved) {
					t.Fatalf("want starvation, got: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("hybrid: %v", err)
			}
			// Strict is off: the threaded engine's completion-discard
			// semantics let a kernel finish (failed) after the kill.
			if err := oracle.Check(g, res.Trace, oracle.Options{
				Eps: 2e-3,
				Faults: &oracle.FaultCheck{
					MaxRetries: fp.RetryCap(),
					Kills:      res.Faults.AppliedKills,
				},
				Static: oracle.StaticCheckFor(hs, res.Faults.AppliedKills),
			}); err != nil {
				t.Fatalf("oracle rejected hybrid run: %v", err)
			}
			killRepairs := 0
			for _, r := range hs.Repairs() {
				if r.Reason == heft.RepairKill && r.Worker == cw {
					killRepairs++
				}
			}
			if killRepairs != 1 {
				t.Errorf("kill repairs = %d, want 1 (repairs: %+v)", killRepairs, hs.Repairs())
			}
		})
	}
}

// TestThreadedStaticFaultFree: pinned replay on the wall-clock engine
// with no faults follows the plan — full oracle with StaticCheck, no
// repairs.
func TestThreadedStaticFaultFree(t *testing.T) {
	const d = time.Millisecond
	m := platform.CPUOnly(3)
	for _, alg := range []heft.Algorithm{heft.RankUpward, heft.RankOptimistic} {
		hs := heft.NewStatic(alg)
		eng, err := runtime.NewThreadedEngine(m, hs)
		if err != nil {
			t.Fatal(err)
		}
		g := staticChains(3, 5, d)
		res, err := eng.Run(g)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := oracle.Check(g, res.Trace, oracle.Options{
			Eps:    2e-3,
			Static: oracle.StaticCheckFor(hs, nil),
		}); err != nil {
			t.Fatalf("%v: oracle rejected replay: %v", alg, err)
		}
		if n := len(hs.Repairs()); n != 0 {
			t.Errorf("%v: %d repairs on a fault-free run", alg, n)
		}
	}
}
