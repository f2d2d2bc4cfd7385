package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

// FaultCell is one (workload, scheduler, scenario) measurement of the
// robustness study.
type FaultCell struct {
	Workload  string
	Scheduler string
	Scenario  string
	// Makespan is the fault-run completion time; Baseline the fault-free
	// makespan of the same (workload, scheduler).
	Makespan float64
	Baseline float64
	// DegradationPct is the makespan increase over the baseline.
	DegradationPct float64
	Stats          runtime.FaultStats
	// OracleOK reports that the run passed the execution oracle's
	// exactly-once-effective validation (strict kill semantics).
	OracleOK bool
}

// FaultsResult is the -exp faults robustness study: every scheduler
// against worker kills, slowdown windows, transfer failures and
// performance-model noise, with recovery validated by the oracle.
type FaultsResult struct {
	Cells []FaultCell
}

// faultSchedulers is the full comparison set of the conformance
// harness; every policy must survive every scenario.
var faultSchedulers = []string{
	"multiprio", "dm", "dmda", "dmdas", "heteroprio", "lws", "prio", "eager",
}

// faultScenarios describes the injected fault mixes. Counts scale with
// the per-cell fault-free makespan (the Spec horizon).
var faultScenarios = []struct {
	name string
	spec fault.Spec
}{
	{"kills", fault.Spec{Seed: 1009, Kills: 2}},
	{"slowdowns", fault.Spec{Seed: 2003, Slowdowns: 3, SlowFactor: 4}},
	{"mixed", fault.Spec{Seed: 3001, Kills: 1, Slowdowns: 2, TransferFaults: 2, ModelNoise: 0.2}},
}

// robustBed is what the faults, stragglers and static studies share: a
// small heterogeneous node, the workloads run on it, and the grid of one
// sweep job per (workload, column) pair.
type robustBed struct {
	c         *Ctx
	m         *platform.Machine
	workloads []workload
}

// newRobustBed builds the bed. typed adds the randdag column that
// restricts 40% of GPU-capable tasks to GPU-only, exercising the
// capability mask through HEFT's EFT loop and the fallback's distributor
// alike.
func newRobustBed(c *Ctx, typed bool) (*robustBed, error) {
	nCPU, nGPU := 5, 2
	dagLayers, dagWidth, tiles := 8, 12, 8
	if c.Scale == Full {
		nCPU, nGPU = 10, 4
		dagLayers, dagWidth, tiles = 16, 20, 14
	}
	m, err := platform.NewHeteroNode("robust", nCPU, 10, nGPU, 100, 64*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		return nil, err
	}
	randDAG := func(name string, typedFraction float64) workload {
		return workload{name, func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: dagLayers, Width: dagWidth,
				CommuteShare: 0.3, TypedFraction: typedFraction, Machine: m, Seed: 17})
		}}
	}
	b := &robustBed{c: c, m: m, workloads: []workload{randDAG("randdag", 0)}}
	if typed {
		b.workloads = append(b.workloads, randDAG("randdag-typed", 0.4))
	}
	b.workloads = append(b.workloads, workload{"cholesky", func() *runtime.Graph {
		return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 512, Machine: m,
			UserPriorities: true})
	}})
	return b, nil
}

// run simulates a fresh graph of w under s and plan (nil = fault-free).
// Memory events are recorded whenever a plan is given: those are the
// runs the oracle replays.
func (b *robustBed) run(w workload, s runtime.Scheduler, plan *fault.Plan) (*runtime.Graph, *sim.Result, error) {
	g := w.build()
	res, err := b.c.simulate(b.m, g, s,
		memEventsIf(plan != nil),
		runtime.WithFaultPlan(plan))
	return g, res, err
}

// runNamed is run under a fresh scheduler of the named policy.
func (b *robustBed) runNamed(w workload, schedName string, plan *fault.Plan) (*runtime.Graph, *sim.Result, error) {
	s, err := NewScheduler(schedName)
	if err != nil {
		return nil, nil, err
	}
	return b.run(w, s, plan)
}

// robustGrid runs cell once per (workload, column) pair, workloads
// outermost, on the sweep pool.
func robustGrid[T any](b *robustBed, cols int, cell func(w workload, col int) ([]T, error)) ([][]T, error) {
	return sweep(b.c, len(b.workloads)*cols, func(idx int) ([]T, error) {
		return cell(b.workloads[idx/cols], idx%cols)
	})
}

// RunFaults executes the robustness study: for each workload and
// scheduler, a fault-free baseline fixes the horizon, then each fault
// scenario is injected (seed-deterministic plans via fault.Generate)
// and the recovered run is validated by the execution oracle.
func RunFaults(c *Ctx) (*FaultsResult, error) {
	b, err := newRobustBed(c, false)
	if err != nil {
		return nil, err
	}
	rows, err := robustGrid(b, len(faultSchedulers), func(w workload, col int) ([]FaultCell, error) {
		schedName := faultSchedulers[col]
		_, base, err := b.runNamed(w, schedName, nil)
		if err != nil {
			return nil, fmt.Errorf("%s/%s baseline: %w", w.name, schedName, err)
		}
		cells := make([]FaultCell, 0, len(faultScenarios))
		for _, sc := range faultScenarios {
			spec := sc.spec
			spec.Horizon = base.Makespan
			plan := fault.Generate(b.m, spec)
			g, res, err := b.runNamed(w, schedName, plan)
			if err != nil {
				return nil, fmt.Errorf("%s/%s %s: %w", w.name, schedName, sc.name, err)
			}
			oracleErr := oracle.Check(g, res.Trace, oracle.Options{
				OverflowBytes: res.OverflowBytes,
				Faults: &oracle.FaultCheck{
					MaxRetries: plan.RetryCap(),
					Kills:      res.Faults.AppliedKills,
					Strict:     true,
				},
			})
			if oracleErr != nil {
				return nil, fmt.Errorf("%s/%s %s: oracle: %w", w.name, schedName, sc.name, oracleErr)
			}
			cells = append(cells, FaultCell{
				Workload:       w.name,
				Scheduler:      schedName,
				Scenario:       sc.name,
				Makespan:       res.Makespan,
				Baseline:       base.Makespan,
				DegradationPct: pct(res.Makespan, base.Makespan),
				Stats:          res.Faults,
				OracleOK:       true,
			})
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	// Regroup so Print's (workload, scenario) blocks are contiguous,
	// with schedulers as rows inside each block.
	r := &FaultsResult{}
	for wi := range b.workloads {
		for sci := range faultScenarios {
			for si := range faultSchedulers {
				r.Cells = append(r.Cells, rows[wi*len(faultSchedulers)+si][sci])
			}
		}
	}
	return r, nil
}

// Print renders the study as one table per (workload, scenario) block.
func (r *FaultsResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Fault injection & recovery: makespan under kills, slowdowns, transfer failures")
	fmt.Fprintln(w, "(plans are seed-deterministic; every run validated by the execution oracle's")
	fmt.Fprintln(w, " exactly-once-effective rule)")
	last := ""
	for _, c := range r.Cells {
		key := c.Workload + "/" + c.Scenario
		if key != last {
			fmt.Fprintf(w, "\n%-10s scenario=%s\n", c.Workload, c.Scenario)
			rule(w, 96)
			fmt.Fprintf(w, "%-12s %12s %12s %8s %7s %7s %7s %6s %7s %7s\n",
				"scheduler", "makespan(s)", "baseline(s)", "degr%", "kills", "retries", "xfail", "slow", "lost", "oracle")
			last = key
		}
		ok := "pass"
		if !c.OracleOK {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "%-12s %12.4f %12.4f %+7.1f%% %7d %7d %7d %6d %7d %7s\n",
			c.Scheduler, c.Makespan, c.Baseline, c.DegradationPct,
			c.Stats.Kills, c.Stats.Retries, c.Stats.TransferFailures,
			c.Stats.Slowdowns, c.Stats.LostReplicas, ok)
	}
}
