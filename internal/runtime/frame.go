package runtime

import (
	"multiprio/internal/fault"
	"multiprio/internal/obs"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/spec"
)

// RunFrame is what both engines do identically around a run, written
// once: RunConfig.Begin validates the graph, opens the observer bracket
// and resolves the configuration into what the run executes with;
// Speculation builds the straggler controller once the engine has a
// clock; End folds the engine-neutral statistics into the Result and
// closes the observer bracket. It is a plain value the engine keeps on
// its stack or in its run state — there is one implementation, so it is
// not an interface, and a run pays no heap object for it.
type RunFrame struct {
	// Plan is the fault plan to inject; nil when the run has none or an
	// empty one, so engines guard fault paths with one nil check.
	Plan *fault.Plan
	// Model is the performance model the scheduler sees: the configured
	// Estimator, else the engine's default, under the plan's model noise.
	Model perfmodel.Estimator
	// Probe fans in the configured probe, the observer and the watchdog's
	// decision tail; nil when there is none of them.
	Probe obs.Probe
	// Tail is the decision ring the watchdog dumps; nil unless armed.
	Tail *DecisionTail
	// Spec is the controller Speculation built; nil until then and when
	// the plan does not enable speculation.
	Spec *spec.Controller

	observer RunObserver
	machine  *platform.Machine
	graph    *Graph
	sched    Scheduler
}

// Begin opens a run of g on m under s for the named engine ("sim" or
// "threaded"). def is the model the scheduler sees when no Estimator is
// configured — the one thing the engines resolve differently. The
// observer sees RunStart first, so a graph or arrival plan that fails
// validation still gets its RunEnd (delivered here; the engine just
// returns the error).
func (c *RunConfig) Begin(engine string, m *platform.Machine, g *Graph, s Scheduler, def perfmodel.Estimator) (RunFrame, error) {
	f := RunFrame{
		Model: def, Probe: c.Probe,
		observer: c.Observer, machine: m, graph: g, sched: s,
	}
	if c.Observer != nil {
		f.Probe = obs.Combine(c.Probe, c.Observer)
		c.Observer.RunStart(RunInfo{Machine: m, Tasks: len(g.Tasks), Scheduler: s.Name(), Engine: engine})
	}
	err := g.Validate()
	if err == nil {
		err = ValidateArrivals(c.Arrivals, g)
	}
	if err != nil {
		f.End(nil, err)
		return f, err
	}
	if c.Watchdog.Armed() {
		// Probes are read-only, so arming the watchdog never perturbs a
		// run.
		f.Tail = NewDecisionTail(DefaultWatchdogTail)
		f.Probe = obs.Combine(f.Probe, f.Tail)
	}
	if c.Estimator != nil {
		f.Model = c.Estimator
	}
	if !c.Faults.Empty() {
		f.Plan = c.Faults
		if f.Plan.ModelNoise > 0 {
			f.Model = fault.NoisyEstimator{Base: f.Model, Rel: f.Plan.ModelNoise, Seed: f.Plan.NoiseSeed}
		}
	}
	return f, nil
}

// Speculation builds the run's speculation controller on the engine's
// clock and linearization sequencer (nil seq: unsequenced probes), or
// returns nil when the plan does not enable speculation.
func (f *RunFrame) Speculation(now func() float64, seq func() int64) *spec.Controller {
	if pol := f.Plan.SpecPolicy(); pol.Enabled {
		f.Spec = spec.New(pol, f.Probe, now, seq)
	}
	return f.Spec
}

// End closes the run. The engine passes the Result it measured
// (makespan, trace, fault counters, engine-specific fields) or the error
// that aborted the run; End adds what derives from those the same way in
// both engines and delivers the observer's one RunEnd.
func (f *RunFrame) End(res *Result, err error) (*Result, error) {
	if err == nil {
		if f.Spec != nil {
			res.Spec = f.Spec.Stats
			// Launching a replica clears its task's claim (ResetForRetry) so
			// a worker could pop the copy. A replica still queued when its
			// task won stays claimable until the run ends — schedulers panic
			// on claimed tasks in their queues — so the winner's claim is
			// re-asserted only now, with every pop done.
			for _, t := range f.graph.Tasks {
				if !t.Claimed() {
					t.TryClaim()
				}
			}
		}
		res.Workers = WorkerStatsFromTrace(f.machine, res.Trace, res.Faults.AppliedKills)
		res.Stream = StreamStatsOf(f.sched)
	}
	if f.observer != nil {
		f.observer.RunEnd(res, err)
	}
	return res, err
}
