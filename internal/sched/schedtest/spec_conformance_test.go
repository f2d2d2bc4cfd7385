package schedtest

import (
	"bytes"
	"testing"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/spec"
)

// TestConformanceSpeculationNoop pins the trace-neutrality contract of
// straggler speculation: with speculation ENABLED but no slowdown in
// the plan, nothing ever straggles (the simulator only schedules a
// detection event for kernels that will overrun their deadline), so
// every scheduler's canonical trace over every workload must be
// byte-identical to the plain run's. Speculation must be free until the
// moment it is needed.
func TestConformanceSpeculationNoop(t *testing.T) {
	m := conformanceMachine()
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				run := func(p *fault.Plan) *sim.Result {
					res, err := sim.Run(m, w.build(), pol.mk(),
						runtime.WithMemEvents(),
						runtime.WithFaultPlan(p))
					if err != nil {
						t.Fatalf("sim.Run: %v", err)
					}
					return res
				}
				plain := run(nil)
				specOn := run(&fault.Plan{Speculation: spec.Policy{Enabled: true}})
				if !bytes.Equal(plain.Trace.Canonical(), specOn.Trace.Canonical()) {
					t.Fatalf("speculation with no stragglers perturbed %s on %s (%d vs %d bytes)",
						pol.name, w.name, len(plain.Trace.Canonical()), len(specOn.Trace.Canonical()))
				}
				if specOn.Spec.Flagged != 0 {
					t.Fatalf("stragglers flagged in a slowdown-free run: %+v", specOn.Spec)
				}
			})
		}
	}
}

// TestSpecConformanceSimEngine is the simulator half of the straggler
// matrix: worker 0 runs 16x slow for the whole run, so every policy
// over every workload must rescue work through replicas, and the run
// must pass the oracle (cancelled attempts included) and keep a run
// state that agrees with its trace.
func TestSpecConformanceSimEngine(t *testing.T) {
	m := conformanceMachine()
	plan := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 1e3, Factor: 16},
		},
		Speculation: spec.Policy{Enabled: true, SlackFactor: 1.5},
	}
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				g := w.build()
				res, err := sim.Run(m, g, pol.mk(),
					runtime.WithMemEvents(),
					runtime.WithFaultPlan(plan))
				if err != nil {
					t.Fatalf("sim.Run: %v", err)
				}
				if err := oracle.Check(g, res.Trace, oracle.Options{
					OverflowBytes: res.OverflowBytes,
					Spec:          &oracle.SpecCheck{MaxReplicas: plan.SpecPolicy().ReplicaCap()},
				}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if err := checkRunState(res); err != nil {
					t.Fatalf("run state: %v", err)
				}
			})
		}
	}
}

// TestSpecConformanceThreadedEngine drives every scheduler through a
// straggler scenario on the goroutine engine (run under -race in CI):
// worker 0 is slowed 12x by the plan while the model still expects the
// nominal cost, so its deadlines must replicate work landing there. The
// oracle validates exactly-once-effective with cancelled attempts.
func TestSpecConformanceThreadedEngine(t *testing.T) {
	m := conformanceMachine()
	plan := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 10, Factor: 12},
		},
		Speculation: spec.Policy{Enabled: true},
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			g := runtime.NewGraph()
			for i := 0; i < 40; i++ {
				g.Submit(runtime.TaskSpec{Kind: "work", Cost: []float64{0.002, 0.002},
					Run: func(w runtime.WorkerInfo) { time.Sleep(2 * time.Millisecond) }})
			}
			eng, err := runtime.NewThreadedEngine(m, pol.mk(), runtime.WithFaultPlan(plan))
			if err != nil {
				t.Fatalf("NewThreadedEngine: %v", err)
			}
			res, err := eng.Run(g)
			if err != nil {
				t.Fatalf("threaded speculation run: %v", err)
			}
			if err := oracle.Check(g, res.Trace, oracle.Options{
				Spec: &oracle.SpecCheck{MaxReplicas: plan.SpecPolicy().ReplicaCap()},
			}); err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if err := checkRunState(res); err != nil {
				t.Fatalf("run state: %v", err)
			}
		})
	}
}
