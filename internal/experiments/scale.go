package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
)

// ScaleRow is one (size, scheduler) point of the scaling study.
type ScaleRow struct {
	Tasks     int
	Scheduler string
	// Events is the discrete-event count of the run and Makespan the
	// simulated completion time; both are determinism anchors (same
	// graph, same numbers on any machine).
	Events   int64
	Makespan float64
	// Checked marks rows whose full trace (with memory events) was
	// validated by the execution oracle.
	Checked bool
}

// ScaleResult is the million-task scaling curve: the simulator on
// layered random DAGs of 10^3..10^6 tasks. Its throughput is the
// repository benchmark's tasks_per_s: the 10^5-task eager and multiprio
// rows are the graphs of its sim-randdag-1e5 workloads.
type ScaleResult struct {
	Rows []ScaleRow
}

// scaleSchedulers spans the cost spectrum: eager bounds pure engine
// mechanics, multiprio is the paper's policy, dmdas the HEFT-style
// comparison point.
func scaleSchedulers() []string { return []string{"eager", "multiprio", "dmdas"} }

// scaleParams is the randdag shape of one size: fixed width 50, depth
// scaled to hit the task count, mixed affinity, mild edge density.
func scaleParams(tasks int) randdag.Params {
	return randdag.Params{Layers: tasks / 50, Width: 50, EdgeProb: 0.1, Seed: 42}
}

// RunScale runs every scheduler on one graph per size, across four
// orders of magnitude. Quick covers 10^3..10^5 with every run
// oracle-checked (memory events on, full coherence replay); Full adds
// the 10^6-task point and runs without the oracle replay.
func RunScale(c *Ctx) (*ScaleResult, error) {
	m, err := PlatformByName("intel-v100", 1)
	if err != nil {
		return nil, err
	}
	sizes := []int{1_000, 10_000, 100_000}
	if c.Scale == Full {
		sizes = append(sizes, 1_000_000)
	}
	ws := make([]workload, len(sizes))
	for i, n := range sizes {
		ws[i] = newWorkload(fmt.Sprint(n), m, func() (*runtime.Graph, error) {
			p := scaleParams(n)
			p.Machine = m
			g := randdag.Build(p)
			if len(g.Tasks) != n {
				return nil, fmt.Errorf("built %d tasks, want %d", len(g.Tasks), n)
			}
			return g, nil
		})
	}
	check := c.Scale == Quick
	names := scaleSchedulers()
	rows, err := grid(c, ws, len(names), func(w workload, g *runtime.Graph, col int) (ScaleRow, error) {
		s, err := NewScheduler(names[col])
		if err != nil {
			return ScaleRow{}, err
		}
		r, err := c.simulate(m, g, s, memEventsIf(check))
		if err != nil {
			return ScaleRow{}, fmt.Errorf("%s %s: %w", w.name, names[col], err)
		}
		if check {
			if err := oracle.Check(g, r.Trace, oracle.Options{OverflowBytes: r.OverflowBytes}); err != nil {
				return ScaleRow{}, fmt.Errorf("%s %s: oracle: %w", w.name, names[col], err)
			}
		}
		return ScaleRow{Tasks: len(g.Tasks), Scheduler: names[col], Events: r.Events, Makespan: r.Makespan, Checked: check}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ScaleResult{Rows: rows}, nil
}

// Print renders the scaling table.
func (r *ScaleResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Scaling curve: layered random DAGs (width 50), Intel-V100")
	fmt.Fprintf(w, "%10s %-10s %12s %12s %8s\n", "tasks", "scheduler", "events", "makespan", "oracle")
	rule(w, 56)
	for _, row := range r.Rows {
		checked := "-"
		if row.Checked {
			checked = "ok"
		}
		fmt.Fprintf(w, "%10d %-10s %12d %12.4f %8s\n", row.Tasks, row.Scheduler, row.Events, row.Makespan, checked)
	}
}
