package schedtest

import (
	"fmt"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

// fanIn builds a randdag whose tasks have about half the previous layer
// as predecessors: many completions race to release each task.
func fanIn(m *platform.Machine) *runtime.Graph {
	return randdag.Build(randdag.Params{Layers: 60, Width: 24, EdgeProb: 0.5, Machine: m, Seed: 9})
}

// checkReadyAt requires, for every task of a finished run, that it became
// ready no earlier than its last predecessor ended and no later than it
// started.
func checkReadyAt(t *testing.T, g *runtime.Graph, st runtime.RunState) {
	t.Helper()
	for _, task := range g.Tasks {
		var last float64
		for _, p := range g.Preds(task) {
			last = max(last, st[p].EndAt)
		}
		if rec := &st[task.ID]; rec.ReadyAt < last || rec.ReadyAt > rec.StartAt {
			t.Fatalf("task %d: ReadyAt %v outside [last predecessor end %v, StartAt %v]",
				task.ID, rec.ReadyAt, last, rec.StartAt)
		}
	}
}

// TestReadyAtBound: on both engines, max EndAt over λ−(t) ≤ ReadyAt ≤
// StartAt for every task t. The threaded runs use no-op kernels and up to
// four times as many workers as a small machine has cores, so workers
// that stamped their ends in one order often commit them in another:
// stamping a released successor with the releaser's own end — rather
// than the latest end committed — breaks the lower bound there.
func TestReadyAtBound(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		m := platform.IntelV100(platform.Config{})
		for _, s := range []runtime.Scheduler{eager.New(), core.New(core.Defaults())} {
			g := fanIn(m)
			res, err := sim.Run(m, g, s)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			checkReadyAt(t, g, res.Tasks)
		}
	})
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("threaded-%d", n), func(t *testing.T) {
			m := platform.CPUOnly(n)
			for rep := 0; rep < 3; rep++ {
				g := fanIn(m)
				eng, err := runtime.NewThreadedEngine(m, eager.New())
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(g)
				if err != nil {
					t.Fatal(err)
				}
				checkReadyAt(t, g, res.Tasks)
			}
		})
	}
}
