package sim

import (
	"runtime/debug"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/core"
	"multiprio/internal/obs"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/race"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
	"multiprio/internal/telemetry"
)

// simRunAllocs returns what one fault-free Run of g allocates, the
// graph built beforehand, and the transfers the run issued. The
// collector is off while it counts: what a collection allocates depends
// on when it happens to run, which made a count differ by one from run
// to run.
func simRunAllocs(t *testing.T, m *platform.Machine, g *runtime.Graph, mk func() runtime.Scheduler) (allocs float64, xfers int) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs = testing.AllocsPerRun(3, func() {
		res, err := Run(m, g, mk())
		if err != nil {
			t.Fatal(err)
		}
		xfers = len(res.Trace.Xfers)
		if cap(res.Trace.Xfers) != xfers {
			t.Fatalf("%d transfers folded into cap %d, want no slack", xfers, cap(res.Trace.Xfers))
		}
	})
	return allocs, xfers
}

// TestSimRunAllocationPin pins the shape of a fault-free run's
// allocations: O(1) per run plus O(log) slab and slice growth steps,
// nothing per task and nothing per transfer. Each case runs the same
// job at about twice the tasks (and transfers) and allows the larger
// run a few more growth steps — a per-task or per-transfer allocation
// would show as thousands. The Cholesky tiles are sized past the GPU's
// 4 GiB, so eviction, write-back and re-fetch are on the pinned path.
func TestSimRunAllocationPin(t *testing.T) {
	cholesky := func(tiles int) func(m *platform.Machine) *runtime.Graph {
		return func(m *platform.Machine) *runtime.Graph {
			return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 2880, Machine: m, UserPriorities: true})
		}
	}
	randDAG := func(layers int) func(m *platform.Machine) *runtime.Graph {
		return func(m *platform.Machine) *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: layers, Width: 50, EdgeProb: 0.1, Machine: m, Seed: 42})
		}
	}
	for _, tc := range []struct {
		name         string
		machine      *platform.Machine
		small, large func(*platform.Machine) *runtime.Graph
		sched        func() runtime.Scheduler
	}{
		{"cholesky/dmdas", platform.SmallSim(platform.Config{}), cholesky(24), cholesky(30),
			func() runtime.Scheduler { return dmdas.New(dmdas.DMDAS) }},
		{"cholesky/eager", platform.SmallSim(platform.Config{}), cholesky(24), cholesky(30),
			func() runtime.Scheduler { return eager.New() }},
		{"randdag/multiprio", platform.IntelV100(platform.Config{}), randDAG(40), randDAG(80),
			func() runtime.Scheduler { return core.New(core.Defaults()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gs, gl := tc.small(tc.machine), tc.large(tc.machine)
			small, xs := simRunAllocs(t, tc.machine, gs, tc.sched)
			large, xl := simRunAllocs(t, tc.machine, gl, tc.sched)
			t.Logf("%d tasks, %d transfers: %v allocs; %d tasks, %d transfers: %v allocs",
				len(gs.Tasks), xs, small, len(gl.Tasks), xl, large)
			if xs < len(gs.Tasks)/2 {
				t.Fatalf("only %d transfers for %d tasks: the transfer path is not exercised", xs, len(gs.Tasks))
			}
			moreTasks := len(gl.Tasks) - len(gs.Tasks)
			if large-small > 12 {
				t.Errorf("%d more tasks and %d more transfers cost %v more allocations, want <= 12 (growth steps)",
					moreTasks, xl-xs, large-small)
			}
		})
	}
}

// TestCommuteRunAllocationPin pins that commuting tasks cost a run no
// allocation each: the engine lists a task's commute handles in a scratch
// it owns and reuses its waiter lists, so a randdag run with a fifth of
// its tasks updating one shared accumulator allocates the same at twice
// the tasks, up to a few growth steps. (CommuteHandles returning a fresh
// slice cost two allocations per commuting task.)
func TestCommuteRunAllocationPin(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	build := func(layers int) *runtime.Graph {
		return randdag.Build(randdag.Params{Layers: layers, Width: 50, EdgeProb: 0.1, CommuteShare: 0.2, Machine: m, Seed: 42})
	}
	commuting := func(g *runtime.Graph) (n int) {
		for _, task := range g.Tasks {
			if len(task.CommuteHandles(nil)) > 0 {
				n++
			}
		}
		return n
	}
	gs, gl := build(40), build(80)
	mk := func() runtime.Scheduler { return eager.New() }
	small, _ := simRunAllocs(t, m, gs, mk)
	large, _ := simRunAllocs(t, m, gl, mk)
	cs, cl := commuting(gs), commuting(gl)
	t.Logf("%d commuting tasks: %v allocs; %d commuting tasks: %v allocs", cs, small, cl, large)
	if cl-cs < 300 {
		t.Fatalf("only %d more commuting tasks: the commute path is not exercised", cl-cs)
	}
	if large-small > 12 {
		t.Errorf("%d more commuting tasks cost %v more allocations, want <= 12 (growth steps)", cl-cs, large-small)
	}
}

// With memory events on, the run that evicts, writes back and re-fetches
// folds both logs to their exact length, in an order the oracle accepts.
func TestFoldedLogsOnMemoryStarvedRun(t *testing.T) {
	m := platform.SmallSim(platform.Config{})
	g := dense.Cholesky(dense.Params{Tiles: 24, TileSize: 2880, Machine: m, UserPriorities: true})
	res, err := Run(m, g, dmdas.New(dmdas.DMDAS), runtime.WithMemEvents())
	if err != nil {
		t.Fatal(err)
	}
	if tr := res.Trace; len(tr.MemEvents) < len(tr.Xfers) || cap(tr.Xfers) != len(tr.Xfers) || cap(tr.MemEvents) != len(tr.MemEvents) {
		t.Errorf("transfers %d/%d, memory events %d/%d: want more events than transfers, both without slack",
			len(tr.Xfers), cap(tr.Xfers), len(tr.MemEvents), cap(tr.MemEvents))
	}
	if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Errorf("oracle rejected the folded trace: %v", err)
	}
}

// TestObservedRunAllocationPin pins a small run's whole allocation
// count, bare and with a fresh observer each time, on the 364 tasks of a
// 12-tile Cholesky: 73 unobserved; 163 with a decision log and a
// metrics recorder (their growth steps); 195 with a telemetry probe (its
// label handles and the metric instances a first run creates) — under
// one allocation per task in every case. (102, 192 and 224 before the
// workers' staging queues became one array, PR 25.) Building the observer is not
// the run's cost and is subtracted.
func TestObservedRunAllocationPin(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := dense.Cholesky(dense.Params{Tiles: 12, TileSize: 960, Machine: m, UserPriorities: true})
	for _, tc := range []struct {
		name    string
		observe func() runtime.Option
		perTask float64
	}{
		{"unobserved", func() runtime.Option { return runtime.WithProbe(nil) }, 0.26},
		{"decision log + metrics", func() runtime.Option {
			return runtime.WithProbe(obs.Multi{&obs.DecisionLog{}, obs.NewMetrics()})
		}, 0.58},
		{"telemetry probe", func() runtime.Option {
			return runtime.WithObserver(telemetry.NewProbe())
		}, 0.70},
	} {
		build := testing.AllocsPerRun(3, func() { tc.observe() })
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Run(m, g, eager.New(), tc.observe()); err != nil {
				t.Fatal(err)
			}
		}) - build
		if perTask := allocs / float64(len(g.Tasks)); perTask > tc.perTask {
			t.Errorf("%s: %v allocations over %d tasks = %.2f per task, want <= %.2f", tc.name, allocs, len(g.Tasks), perTask, tc.perTask)
		}
	}
}

// TestMultiPrioRunAllocationCount pins the whole count of a MultiPrio
// run on a 10^4-task random DAG: at most one object more than the 148 it
// allocated before the run's NOD table. The table took the place of
// MultiPrio's predecessor-count memo; the fill's record and its
// goroutine's closure are new, and MultiPrio's per-run float tables
// sharing one allocation pay for them (148).
func TestMultiPrioRunAllocationCount(t *testing.T) {
	runAllocationCount(t, 0, func() runtime.Scheduler { return core.New(core.Defaults()) }, 149)
}

// TestEagerRunAllocationCount pins the whole count of an eager run on a
// 10^4-task random DAG with edges: 59. It was 71 while each capability
// class grew by doubling from empty on every run; Init now sizes each
// for its roots, the burst the run admits before its first Pop.
func TestEagerRunAllocationCount(t *testing.T) {
	runAllocationCount(t, 0.1, func() runtime.Scheduler { return eager.New() }, 59)
}

// runAllocationCount fails t when a run of mk's policy on the 10^4-task
// random DAG of edge probability p allocates more than max objects.
func runAllocationCount(t *testing.T, p float64, mk func() runtime.Scheduler, max float64) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(randdag.Params{Layers: 200, Width: 50, EdgeProb: p, Machine: m, Seed: 42})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(m, g, mk()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > max {
		t.Errorf("%s: a run of %d tasks allocates %v objects, want <= %v", mk().Name(), len(g.Tasks), allocs, max)
	}
}
