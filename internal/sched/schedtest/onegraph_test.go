package schedtest

import (
	"bytes"
	"sync"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/core"
	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

// TestOneGraphManyRuns: a run writes nothing of its graph. One validated
// randdag and one validated dense Cholesky each run three policies back
// to back on the simulator, with no reset between them, and each run's
// canonical trace equals that of a freshly built graph. Then two
// simulator runs and a threaded run share one graph at once (under
// -race this is the check that none of them writes to it): each
// simulator trace again equals its fresh-graph twin, and every run's
// state agrees with its own trace.
func TestOneGraphManyRuns(t *testing.T) {
	m := conformanceMachine()
	builds := []struct {
		name  string
		build func() *runtime.Graph
	}{
		{"randdag", func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: 8, Width: 10, CommuteShare: 0.3, Machine: m, Seed: 17})
		}},
		{"cholesky", func() *runtime.Graph {
			return dense.Cholesky(dense.Params{Tiles: 6, TileSize: 256, Machine: m, UserPriorities: true})
		}},
	}
	mks := []func() runtime.Scheduler{
		func() runtime.Scheduler { return eager.New() },
		func() runtime.Scheduler { return core.New(core.Defaults()) },
		func() runtime.Scheduler { return dmdas.New(dmdas.DMDAS) },
	}
	simulate := func(t *testing.T, g *runtime.Graph, s runtime.Scheduler) *runtime.Result {
		res, err := sim.Run(m, g, s, runtime.WithMemEvents())
		if err != nil {
			t.Errorf("%s: %v", s.Name(), err)
			return nil
		}
		if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
			t.Errorf("%s: oracle: %v", s.Name(), err)
		}
		if err := checkRunState(res); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
		return res
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			fresh := make([][]byte, len(mks))
			for i, mk := range mks {
				fresh[i] = simulate(t, b.build(), mk()).Trace.Canonical()
			}
			g := b.build()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			for i, mk := range mks {
				if got := simulate(t, g, mk()); got != nil && !bytes.Equal(got.Trace.Canonical(), fresh[i]) {
					t.Errorf("run %d on the shared graph differs from a fresh graph's", i)
				}
			}

			var wg sync.WaitGroup
			sims := make([]*runtime.Result, 2)
			for i := range sims {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sims[i] = simulate(t, g, mks[i]())
				}()
			}
			var thr *runtime.Result
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng, err := runtime.NewThreadedEngine(m, eager.New())
				if err == nil {
					thr, err = eng.Run(g)
				}
				if err != nil {
					t.Errorf("threaded: %v", err)
				}
			}()
			wg.Wait()
			for i, res := range sims {
				if res != nil && !bytes.Equal(res.Trace.Canonical(), fresh[i]) {
					t.Errorf("concurrent simulator run %d differs from a fresh graph's", i)
				}
			}
			if thr != nil {
				if err := oracle.Check(g, thr.Trace, oracle.Options{}); err != nil {
					t.Errorf("threaded: oracle: %v", err)
				}
				if err := checkRunState(thr); err != nil {
					t.Errorf("threaded: %v", err)
				}
			}
		})
	}
}
