package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
	"multiprio/internal/spec"
)

// StragglerCell is one (workload, scheduler) measurement of the
// straggler-mitigation study: the same seed-deterministic slowdown plan
// run twice, with speculation off and on.
type StragglerCell struct {
	Workload  string
	Scheduler string
	// Baseline is the clean makespan (no slowdowns, no speculation).
	Baseline float64
	// Slowed is the makespan under the slowdown plan with speculation
	// off: stragglers run to completion wherever they landed.
	Slowed float64
	// Speculated is the makespan under the same plan with speculation
	// on.
	Speculated float64
	// ImprovementPct is how much speculation recovered of the slowed
	// makespan (positive = speculation helped).
	ImprovementPct float64
	Stats          spec.Stats
}

// StragglersResult is the -exp stragglers study: every scheduler on
// slowdown-afflicted workloads, with and without speculative task
// replication, each run validated by the execution oracle.
type StragglersResult struct {
	Cells []StragglerCell
}

// stragglerPolicy is the speculation configuration of the study: flag
// at 1.5x the model's expectation, one replica per task.
var stragglerPolicy = spec.Policy{Enabled: true, SlackFactor: 1.5}

// RunStragglers executes the straggler-mitigation study: for each
// workload and scheduler a clean baseline fixes the horizon, then a
// seed-deterministic plan of heavy slowdown windows (unknown to the
// performance model) is injected twice — speculation off, then on —
// and the makespans are compared. Both runs are oracle-validated; the
// speculative one additionally under the first-success-wins SpecCheck.
func RunStragglers(c *Ctx) (*StragglersResult, error) {
	b, err := newRobustBed(c, false)
	if err != nil {
		return nil, err
	}
	rows, err := grid(c, b.workloads, len(faultSchedulers), func(w workload, g *runtime.Graph, col int) ([]StragglerCell, error) {
		schedName := faultSchedulers[col]
		base, err := b.runNamed(g, schedName, nil)
		if err != nil {
			return nil, fmt.Errorf("%s/%s baseline: %w", w.name, schedName, err)
		}
		// Heavy slowdown windows spanning most of the run, invisible to
		// the performance model: the straggler scenario.
		plan := fault.Generate(b.m, fault.Spec{
			Seed: 4001, Horizon: base.Makespan,
			Slowdowns: 3, SlowFactor: 8, SlowSpan: base.Makespan,
			Speculation: stragglerPolicy,
		})
		off := *plan
		off.Speculation.Enabled = false
		slowed, err := b.runNamed(g, schedName, &off)
		if err != nil {
			return nil, fmt.Errorf("%s/%s slowed: %w", w.name, schedName, err)
		}
		if err := oracle.Check(g, slowed.Trace, oracle.Options{
			OverflowBytes: slowed.OverflowBytes,
		}); err != nil {
			return nil, fmt.Errorf("%s/%s slowed: oracle: %w", w.name, schedName, err)
		}
		spec, err := b.runNamed(g, schedName, plan)
		if err != nil {
			return nil, fmt.Errorf("%s/%s speculated: %w", w.name, schedName, err)
		}
		if err := oracle.Check(g, spec.Trace, oracle.Options{
			OverflowBytes: spec.OverflowBytes,
			Spec:          &oracle.SpecCheck{MaxReplicas: plan.SpecPolicy().ReplicaCap()},
		}); err != nil {
			return nil, fmt.Errorf("%s/%s speculated: oracle: %w", w.name, schedName, err)
		}
		return []StragglerCell{{
			Workload:       w.name,
			Scheduler:      schedName,
			Baseline:       base.Makespan,
			Slowed:         slowed.Makespan,
			Speculated:     spec.Makespan,
			ImprovementPct: improvement(slowed.Makespan, spec.Makespan),
			Stats:          spec.Spec,
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	r := &StragglersResult{}
	for _, row := range rows {
		r.Cells = append(r.Cells, row...)
	}
	return r, nil
}

// improvement is the share of the slowed makespan speculation clawed
// back, in percent (positive = speculation helped).
func improvement(slowed, speculated float64) float64 {
	if slowed == 0 {
		return 0
	}
	return 100 * (slowed - speculated) / slowed
}

// Print renders the study as one table per workload.
func (r *StragglersResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Straggler mitigation: speculative replication under unannounced slowdowns")
	fmt.Fprintln(w, "(same seed-deterministic slowdown plan with speculation off vs on; every run")
	fmt.Fprintln(w, " validated by the execution oracle, speculative runs under first-success-wins)")
	last := ""
	for _, c := range r.Cells {
		if c.Workload != last {
			fmt.Fprintf(w, "\n%-10s slack=%.2g replicas<=%d\n",
				c.Workload, stragglerPolicy.Slack(), stragglerPolicy.ReplicaCap())
			rule(w, 100)
			fmt.Fprintf(w, "%-12s %11s %10s %10s %8s %6s %6s %5s %6s %9s %7s\n",
				"scheduler", "baseline(s)", "slowed(s)", "spec(s)", "improv%",
				"flag", "launch", "wins", "cancel", "wasted(s)", "oracle")
			last = c.Workload
		}
		fmt.Fprintf(w, "%-12s %11.4f %10.4f %10.4f %+7.1f%% %6d %6d %5d %6d %9.4f %7s\n",
			c.Scheduler, c.Baseline, c.Slowed, c.Speculated, c.ImprovementPct,
			c.Stats.Flagged, c.Stats.Launched, c.Stats.ReplicaWins,
			c.Stats.Cancelled, c.Stats.WastedWork, "pass")
	}
}
