package sim

import (
	"math"
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
)

// fuzzCosts are the cost rows a fuzzed task may carry on the two-arch
// machine: none, unusable ones (Validate must reject the graph) and
// every runnable combination.
var fuzzCosts = [][]float64{
	nil, {0}, {math.NaN()}, {-1, math.Inf(1)},
	{1e-3}, {0, 1e-4}, {1e-3, 1e-4}, {2e-3, 0},
}

// FuzzGraphValidate builds a graph from a byte script of handle
// registrations (negative sizes included), Submit calls (every access
// mode, repeated handles, unusable cost rows) and Declare calls with
// arbitrary endpoints. A Declare may refuse its edge by panicking, and
// must then leave the graph as it was; Validate itself never panics; and
// a graph it accepts runs to completion on the simulator.
func FuzzGraphValidate(f *testing.F) {
	// Script encoding: {0, size} registers a handle, {1, cost row, n,
	// n × (handle, mode-1)} submits a task, {2, from, to} declares an edge.
	// A writer, a reader and a GPU-only loner; then a new edge, the
	// inferred one again, a backward one and one from a loose task.
	f.Add([]byte{0, 8, 1, 6, 1, 0, 1, 1, 4, 1, 0, 0, 1, 5, 0, 2, 0, 2, 2, 0, 1, 2, 2, 0, 2, 9, 1})
	// A negative handle size and a task with no implementation.
	f.Add([]byte{0, 200, 1, 0, 0})
	// A commute group closed by a read, a two-handle task, three edges.
	f.Add([]byte{0, 1, 1, 6, 1, 0, 3, 1, 6, 1, 0, 3, 1, 6, 1, 0, 3, 1, 6, 1, 0, 0,
		1, 6, 2, 0, 1, 0, 2, 2, 0, 4, 2, 1, 4, 2, 10, 1})
	m := platform.IntelV100(platform.Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := runtime.NewGraph()
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for len(data) > 0 {
			switch op := next(); op % 3 {
			case 0:
				g.NewData("h", int64(int8(next())))
			case 1:
				spec := runtime.TaskSpec{Kind: "k", Cost: fuzzCosts[next()%len(fuzzCosts)]}
				for n := next() % 4; n > 0 && len(g.Handles) > 0; n-- {
					spec.Accesses = append(spec.Accesses, runtime.Access{
						Handle: g.Handles[next()%len(g.Handles)],
						Mode:   runtime.AccessMode(1 + next()%4),
					})
				}
				g.Submit(spec)
			case 2:
				endpoint := func() *runtime.Task {
					if i := next(); i < len(g.Tasks) {
						return g.Tasks[i]
					} else if i%2 == 0 {
						return nil
					}
					return runtime.NewGraph().Submit(runtime.TaskSpec{Kind: "loose", Cost: []float64{1}})
				}
				from, to := endpoint(), endpoint()
				before := -1
				if to != nil {
					before = to.NumPreds()
				}
				func() {
					defer func() {
						if recover() != nil && to != nil && to.NumPreds() != before {
							t.Fatalf("a refused Declare changed NumPreds %d -> %d", before, to.NumPreds())
						}
					}()
					g.Declare(from, to)
				}()
			}
		}
		if g.Validate() != nil {
			return
		}
		res, err := Run(m, g, eager.New())
		if err != nil {
			t.Fatalf("a validated graph did not run: %v", err)
		}
		if len(res.Trace.Spans) != len(g.Tasks) {
			t.Fatalf("%d spans for %d tasks", len(res.Trace.Spans), len(g.Tasks))
		}
	})
}
