package experiments

import (
	"fmt"
	"io"
	"time"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
)

// ScaleRow is one (size, scheduler) point of the scaling study.
type ScaleRow struct {
	Tasks     int
	Scheduler string
	// BuildSec is the wall-clock construction time of the size's one
	// graph (SubmitBatch plus dependency inference), shared by the rows
	// of that size; RunSec is the wall-clock simulator execution time.
	// TasksPerSec is Tasks/RunSec — engine throughput.
	BuildSec    float64
	RunSec      float64
	TasksPerSec float64
	// Events is the discrete-event count of the run and Makespan the
	// simulated completion time; both are determinism anchors (same
	// graph, same numbers on any machine).
	Events   int64
	Makespan float64
	// Checked marks rows whose full trace (with memory events) was
	// validated by the execution oracle.
	Checked bool
}

// ScaleResult is the million-task scaling curve: engine throughput on
// layered random DAGs of 10^3..10^6 tasks.
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

// RunScale measures end-to-end engine throughput across four orders of
// magnitude. Quick covers 10^3..10^5 with every run oracle-checked
// (memory events on, full coherence replay); Full adds the 10^6-task
// point, run without the oracle replay so the measurement reflects the
// engine, not the checker. Rows run serially — wall-clock timing on a
// shared worker pool would measure the pool, not the engine.
func RunScale(c *Ctx) (*ScaleResult, error) {
	m, err := PlatformByName("intel-v100", 1)
	if err != nil {
		return nil, err
	}
	sizes := []int{1_000, 10_000, 100_000}
	if c.Scale == Full {
		sizes = append(sizes, 1_000_000)
	}
	res := &ScaleResult{}
	for _, n := range sizes {
		var buildSec float64
		g, err := newWorkload(fmt.Sprint(n), m, func() (*runtime.Graph, error) {
			p := scaleParams(n)
			p.Machine = m
			buildStart := time.Now()
			g := randdag.Build(p)
			buildSec = time.Since(buildStart).Seconds()
			return g, nil
		}).graph()
		if err != nil {
			return nil, err
		}
		if len(g.Tasks) != n {
			return nil, fmt.Errorf("built %d tasks, want %d", len(g.Tasks), n)
		}
		for _, name := range scaleSchedulers() {
			if c.Progress != nil {
				fmt.Fprintf(c.Progress, "scale %d %s...\n", n, name)
			}
			s, err := NewScheduler(name)
			if err != nil {
				return nil, err
			}
			check := n <= 100_000 && c.Scale == Quick
			runStart := time.Now()
			r, err := c.simulate(m, g, s, memEventsIf(check))
			if err != nil {
				return nil, fmt.Errorf("%d %s: %w", n, name, err)
			}
			runSec := time.Since(runStart).Seconds()
			if check {
				if err := oracle.Check(g, r.Trace, oracle.Options{OverflowBytes: r.OverflowBytes}); err != nil {
					return nil, fmt.Errorf("%d %s: oracle: %w", n, name, err)
				}
			}
			res.Rows = append(res.Rows, ScaleRow{
				Tasks: n, Scheduler: name,
				BuildSec: buildSec, RunSec: runSec,
				TasksPerSec: float64(n) / runSec,
				Events:      r.Events, Makespan: r.Makespan,
				Checked: check,
			})
		}
	}
	return res, nil
}

// Print renders the scaling table.
func (r *ScaleResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Scaling curve: layered random DAGs (width 50), Intel-V100")
	fmt.Fprintf(w, "%10s %-10s %10s %10s %12s %12s %12s %8s\n",
		"tasks", "scheduler", "build s", "run s", "tasks/s", "events", "makespan", "oracle")
	rule(w, 92)
	for _, row := range r.Rows {
		checked := "-"
		if row.Checked {
			checked = "ok"
		}
		fmt.Fprintf(w, "%10d %-10s %10.3f %10.3f %12.0f %12d %12.4f %8s\n",
			row.Tasks, row.Scheduler, row.BuildSec, row.RunSec,
			row.TasksPerSec, row.Events, row.Makespan, checked)
	}
}
