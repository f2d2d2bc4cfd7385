// Package experiments regenerates every table and figure of the paper's
// evaluation. Studies lists them (DESIGN.md §4 describes each); every
// driver returns a structured result that renders a table in the layout
// of the corresponding paper artifact, and cmd/multiprio-bench runs the
// list behind flags.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"

	_ "multiprio/internal/sched/all" // register every policy
)

// Ctx is what a study run is given — what multiprio-bench's flags say.
// A study reads it and never writes it, so two runs with two Ctx values
// share nothing.
type Ctx struct {
	Scale Scale
	// Workers is the sweep pool size (-j); below 2 the grid runs
	// serially. Tables are byte-identical for every value.
	Workers int
	// Observer, when non-nil, is attached to every simulator run (a
	// *telemetry.Probe under -serve and -export).
	Observer runtime.RunObserver
	// Progress, when non-nil, receives one dot per finished grid cell.
	Progress io.Writer
	// Gantt adds the ASCII Gantt traces to fig4.
	Gantt bool
	// Fallback names the dynamic policy of the static study — its
	// "dynamic" row and hybrid repair's target; empty is heft's default.
	Fallback string
}

// Report is a finished study: a table in the paper artifact's layout.
type Report interface{ Print(io.Writer) }

// Study is one entry of the evaluation.
type Study struct {
	Name string
	Run  func(*Ctx) (Report, error)
}

// Studies lists every study in the order `-exp all` runs them. The
// -exp help, the usage line and the unknown-name error of
// multiprio-bench are generated from it.
func Studies() []Study {
	return []Study{
		study("table2", RunTable2),
		study("fig3", RunFig3),
		study("fig4", RunFig4),
		study("fig5", RunFig5),
		study("fig6", RunFig6),
		study("fig7", RunFig7),
		study("fig8", RunFig8),
		study("ablation", RunAblation),
		study("hier", RunHier),
		study("energy", RunEnergy),
		study("stress", RunStress),
		study("faults", RunFaults),
		study("static", RunStatic),
		study("stragglers", RunStragglers),
		study("cluster", RunCluster),
		study("stream", RunStream),
		study("scale", RunScale),
	}
}

// study enters a typed driver into the table; a failure carries the
// study's name.
func study[R Report](name string, run func(*Ctx) (R, error)) Study {
	return Study{name, func(c *Ctx) (Report, error) {
		r, err := run(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return r, nil
	}}
}

// Scale selects experiment sizing.
type Scale int

const (
	// Quick runs in seconds per figure: reduced sizes, same shapes.
	Quick Scale = iota
	// Full approximates the paper's problem sizes (minutes per figure).
	Full
)

// NewScheduler instantiates a policy by name through the central
// registry (internal/sched/registry); the error for an unknown name
// lists registry.Names().
func NewScheduler(name string) (runtime.Scheduler, error) {
	return registry.New(name, registry.Options{})
}

// SchedulerNames lists the comparison set of the paper's Section VI.
func SchedulerNames() []string { return []string{"multiprio", "dmdas", "heteroprio"} }

// PlatformByName builds one of the two evaluation platforms.
func PlatformByName(name string, streams int) (*platform.Machine, error) {
	cfg := platform.Config{GPUStreams: streams}
	switch name {
	case "intel-v100":
		return platform.IntelV100(cfg), nil
	case "amd-a100":
		return platform.AMDA100(cfg), nil
	case "smallsim":
		return platform.SmallSim(cfg), nil
	default:
		return nil, fmt.Errorf("experiments: unknown platform %q (intel-v100, amd-a100, smallsim)", name)
	}
}

// runOne executes graph g on m under the named scheduler and returns the
// simulation result. The run writes nothing of g, which may serve any
// number of runs.
func (c *Ctx) runOne(m *platform.Machine, g *runtime.Graph, schedName string) (*sim.Result, error) {
	s, err := NewScheduler(schedName)
	if err != nil {
		return nil, err
	}
	return c.simulate(m, g, s)
}

// makespans runs every workload under every named scheduler on the
// sweep pool and returns the makespans, one grid row per workload.
func (c *Ctx) makespans(ws []workload, scheds []string) ([]float64, error) {
	return grid(c, ws, len(scheds), func(w workload, g *runtime.Graph, col int) (float64, error) {
		r, err := c.runOne(w.m, g, scheds[col])
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", w.name, scheds[col], err)
		}
		return r.Makespan, nil
	})
}

// simulate is how every study starts a simulator run: sim.Run with the
// Ctx's observer attached, so one probe observes every engine run.
func (c *Ctx) simulate(m *platform.Machine, g *runtime.Graph, s runtime.Scheduler, opts ...runtime.Option) (*sim.Result, error) {
	return sim.Run(m, g, s, append(opts, runtime.WithObserver(c.Observer))...)
}

// workload is one named graph of a study, on the machine it was built
// for: one row of the study's grid. newWorkload is the only place a
// study's graph is made. The first graph call builds and validates it;
// every later call, from any goroutine, returns that same graph, so the
// runs of a sweep share one read-only graph instead of each building
// their own. Validating before the graph is handed out matters: a graph
// shared by concurrent runs must be validated first.
type workload struct {
	name  string
	m     *platform.Machine
	graph func() (*runtime.Graph, error)
}

// newWorkload wraps build, which is called at most once.
func newWorkload(name string, m *platform.Machine, build func() (*runtime.Graph, error)) workload {
	return workload{name, m, sync.OnceValues(func() (*runtime.Graph, error) {
		g, err := build()
		if err == nil {
			err = g.Validate()
		}
		return g, err
	})}
}

// memEventsIf records memory events, which only the oracle's replay
// reads, when on.
func memEventsIf(on bool) runtime.Option {
	if on {
		return runtime.WithMemEvents()
	}
	return func(*runtime.RunConfig) {}
}

// gflops converts a flop count and a runtime to GFlop/s.
func gflops(flops, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return flops / seconds / 1e9
}

// pct renders a relative difference in percent: (a-b)/b.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}

// sortedMapKeys returns the sorted keys of a string-keyed map for
// deterministic table rendering.
func sortedMapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// rule prints a horizontal rule of width n.
func rule(w io.Writer, n int) {
	for i := 0; i < n; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
