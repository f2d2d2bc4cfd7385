// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each driver
// returns a structured result and renders a table in the layout of the
// corresponding paper artifact; cmd/multiprio-bench exposes them behind
// flags and bench_test.go wraps scaled-down variants as Go benchmarks.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"

	_ "multiprio/internal/sched/all" // register every policy
)

// observerHolder wraps the interface so atomic.Pointer can carry a nil
// observer distinctly from "never set".
type observerHolder struct{ o runtime.RunObserver }

var curObserver atomic.Pointer[observerHolder]

// SetObserver attaches a run observer (typically a *telemetry.Probe) to
// every engine run the experiment drivers execute through runOne and
// the streaming study — the hook behind multiprio-bench's -serve and
// -export flags. Like SetWorkers it is process-global; set it before
// launching experiments. Pass nil to detach.
func SetObserver(o runtime.RunObserver) { curObserver.Store(&observerHolder{o: o}) }

// Observer returns the currently attached run observer, or nil.
func Observer() runtime.RunObserver {
	if h := curObserver.Load(); h != nil {
		return h.o
	}
	return nil
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
// registry (internal/sched/registry); run `multiprio-bench -list` or
// see registry.Names() for the valid set.
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
// simulation result. The graph must be freshly built (or reset).
func runOne(m *platform.Machine, g *runtime.Graph, schedName string, seed int64) (*sim.Result, error) {
	s, err := NewScheduler(schedName)
	if err != nil {
		return nil, err
	}
	return simulate(m, g, s, runtime.WithSeed(seed))
}

// simulate is how every study starts a simulator run: sim.Run with the
// package Observer attached, so one probe observes every engine run
// (only the telemetry-overhead study picks its own observer).
func simulate(m *platform.Machine, g *runtime.Graph, s runtime.Scheduler, opts ...runtime.Option) (*sim.Result, error) {
	return sim.Run(m, g, s, append(opts, runtime.WithObserver(Observer()))...)
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
