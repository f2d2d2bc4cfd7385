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
				task := &runtime.Task{Kind: "work", Cost: []float64{0.002, 0.002}}
				task.Run = func(w runtime.WorkerInfo) { time.Sleep(2 * time.Millisecond) }
				g.Submit(task)
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
		})
	}
}
