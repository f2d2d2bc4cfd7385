package sim

import (
	"errors"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/heft"
)

// checkStaticRun validates a static-replay run against the full oracle,
// including the StaticCheck assembled from the scheduler's plan and
// repair log.
func checkStaticRun(t *testing.T, g *runtime.Graph, res *Result, hs *heft.Sched, fp *fault.Plan) {
	t.Helper()
	opts := oracle.Options{
		OverflowBytes: res.OverflowBytes,
		Static:        oracle.StaticCheckFor(hs, res.Faults.AppliedKills),
	}
	if !fp.Empty() {
		opts.Faults = &oracle.FaultCheck{
			MaxRetries: fp.RetryCap(),
			Kills:      res.Faults.AppliedKills,
			Strict:     true,
		}
	}
	if err := oracle.Check(g, res.Trace, opts); err != nil {
		t.Fatalf("oracle rejected static run: %v", err)
	}
}

// TestSimStaticReplayConformance: fault-free pinned replay follows the
// plan exactly — the full oracle with StaticCheck passes and no repair
// events are logged, for both ranking algorithms and both modes.
func TestSimStaticReplayConformance(t *testing.T) {
	m := faultMachine(t)
	for _, alg := range []heft.Algorithm{heft.RankUpward, heft.RankOptimistic} {
		for _, hybrid := range []bool{false, true} {
			hs := heft.NewStatic(alg)
			if hybrid {
				hs = heft.NewHybrid(alg, core.New(core.Defaults()))
			}
			g := faultGraph(m, 11)
			res, err := Run(m, g, hs, runtime.WithMemEvents())
			if err != nil {
				t.Fatalf("%s: %v", hs.Name(), err)
			}
			checkStaticRun(t, g, res, hs, nil)
			if n := len(hs.Repairs()); n != 0 {
				t.Errorf("%s: %d repair events on a fault-free run", hs.Name(), n)
			}
			if p := hs.Plan(); res.Makespan > 2*p.Makespan {
				t.Errorf("%s: replay makespan %g strays far from planned %g", hs.Name(), res.Makespan, p.Makespan)
			}
		}
	}
}

// TestSimStaticCriticalKill kills the worker owning the static critical
// path mid-run: pure static deterministically strands its frontier
// (runtime.ErrStarved), hybrid completes with a justified kill repair and a
// clean oracle (FaultCheck strict + StaticCheck); a tampered check that
// withholds the repair log is rejected.
func TestSimStaticCriticalKill(t *testing.T) {
	m := faultMachine(t)
	for _, alg := range []heft.Algorithm{heft.RankUpward, heft.RankOptimistic} {
		probe := heft.NewStatic(alg)
		gp := faultGraph(m, 11)
		probe.Init(runtime.NewEnv(m, gp))
		plan := probe.Plan()
		cw := plan.CriticalWorker()
		fp := &fault.Plan{Events: []fault.Event{
			{Kind: fault.KillWorker, Worker: cw, At: 0.3 * plan.Makespan},
		}}

		// Pure static: the dead worker's tasks have nowhere to go.
		g := faultGraph(m, 11)
		_, err := Run(m, g, heft.NewStatic(alg), runtime.WithFaultPlan(fp))
		if err == nil {
			t.Fatalf("%v: static replay survived the critical-worker kill", alg)
		}
		if !errors.Is(err, runtime.ErrStarved) {
			t.Fatalf("%v: want stranded-frontier deadlock, got: %v", alg, err)
		}

		// Hybrid: the kill diverts the frontier to the fallback.
		hs := heft.NewHybrid(alg, core.New(core.Defaults()))
		g2 := faultGraph(m, 11)
		res, err := Run(m, g2, hs, runtime.WithMemEvents(), runtime.WithFaultPlan(fp))
		if err != nil {
			t.Fatalf("%v hybrid: %v", alg, err)
		}
		checkStaticRun(t, g2, res, hs, fp)
		reps := hs.Repairs()
		if len(reps) == 0 {
			t.Fatalf("%v hybrid: no repair events after a kill", alg)
		}
		kills := 0
		for _, r := range reps {
			if r.Reason == heft.RepairKill && r.Worker == cw {
				kills++
				if len(r.Tasks) == 0 {
					t.Errorf("%v hybrid: kill repair diverts no tasks", alg)
				}
			}
		}
		if kills != 1 {
			t.Errorf("%v hybrid: %d kill repairs for worker %d, want 1", alg, kills, cw)
		}

		// Tamper: the same trace with the repair log withheld must fail
		// the placement rule — diverted tasks ran off their planned
		// worker with no covering repair.
		sc := oracle.StaticCheckFor(hs, res.Faults.AppliedKills)
		sc.Repairs = nil
		if err := oracle.Check(g2, res.Trace, oracle.Options{Static: sc}); err == nil {
			t.Errorf("%v hybrid: oracle accepted the run with the repair log withheld", alg)
		}
	}
}

// TestSimStaticSlackRepair puts the critical worker under a heavy
// slowdown window: hybrid detects the measured drift, diverts the
// worker's remaining tasks, and beats pure static's makespan; the
// oracle validates the slack justification, and a forged slack repair
// (pointing at an on-time trigger) is rejected.
func TestSimStaticSlackRepair(t *testing.T) {
	m := faultMachine(t)
	probe := heft.NewStatic(heft.RankUpward)
	gp := faultGraph(m, 11)
	probe.Init(runtime.NewEnv(m, gp))
	plan := probe.Plan()
	cw := plan.CriticalWorker()
	fp := &fault.Plan{Events: []fault.Event{
		{Kind: fault.SlowWorker, Worker: cw, At: 0, Until: 100 * plan.Makespan, Factor: 8},
	}}

	g := faultGraph(m, 11)
	static := heft.NewStatic(heft.RankUpward)
	sres, err := Run(m, g, static, runtime.WithFaultPlan(fp))
	if err != nil {
		t.Fatal(err)
	}

	g2 := faultGraph(m, 11)
	hs := heft.NewHybrid(heft.RankUpward, core.New(core.Defaults()))
	hres, err := Run(m, g2, hs, runtime.WithMemEvents(), runtime.WithFaultPlan(fp))
	if err != nil {
		t.Fatal(err)
	}
	checkStaticRun(t, g2, hres, hs, nil)
	slacks := 0
	for _, r := range hs.Repairs() {
		if r.Reason == heft.RepairSlack {
			slacks++
		}
	}
	if slacks == 0 {
		t.Fatal("hybrid logged no slack repair under an 8x slowdown of the critical worker")
	}
	if hres.Makespan > sres.Makespan {
		t.Errorf("hybrid makespan %g worse than pure static %g under the slowdown", hres.Makespan, sres.Makespan)
	}

	// Forge: re-point a slack repair at a task that finished on time.
	sc := oracle.StaticCheckFor(hs, nil)
	onTime := int64(-1)
	p := hs.Plan()
	for _, s := range hres.Trace.Spans {
		if !s.Failed && !s.Cancelled && s.End <= p.Finish[s.TaskID]+(hs.EffectiveSlackFactor()-1)*p.Makespan {
			onTime = s.TaskID
			break
		}
	}
	if onTime < 0 {
		t.Fatal("no on-time task to forge with")
	}
	for i := range sc.Repairs {
		if sc.Repairs[i].Reason == "slack" {
			sc.Repairs[i].Trigger = onTime
		}
	}
	if err := oracle.Check(g2, hres.Trace, oracle.Options{Static: sc}); err == nil {
		t.Error("oracle accepted a slack repair forged onto an on-time trigger")
	}
}
