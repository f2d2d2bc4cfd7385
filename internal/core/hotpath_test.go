package core

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/obs"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// workersOf lists the machine's units as scheduler-facing workers.
func workersOf(m *platform.Machine) []runtime.WorkerInfo {
	ws := make([]runtime.WorkerInfo, len(m.Units))
	for i, u := range m.Units {
		ws[i] = runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
	}
	return ws
}

// execute runs g to completion through s the way an engine would,
// minus time: push the roots, let the workers pop round-robin, release
// the successors of whatever was popped. It returns the pop order.
func execute(t testing.TB, s *Sched, m *platform.Machine, g *runtime.Graph) []int64 {
	t.Helper()
	left := make([]int, len(g.Tasks)) // unreleased dependencies
	for i, task := range g.Tasks {
		left[i] = task.NumPreds()
	}
	for _, r := range g.Roots(nil) {
		s.Push(r)
	}
	ws := workersOf(m)
	order := make([]int64, 0, len(g.Tasks))
	for idle := 0; len(order) < len(g.Tasks); {
		for _, w := range ws {
			task := s.Pop(w)
			if task == nil {
				idle++
				continue
			}
			idle = 0
			order = append(order, task.ID)
			for _, id := range task.Succs() {
				if left[id]--; left[id] == 0 {
					s.Push(g.Tasks[id])
				}
			}
		}
		if idle > 2*len(ws) {
			t.Fatalf("scheduler stuck after %d of %d tasks", len(order), len(g.Tasks))
		}
	}
	return order
}

// recountNOD is Eq. 2 by a successor walk over the graph alone: the
// successors of t that can run on a, each adding 1 over its number of
// predecessors that can run on a.
func recountNOD(g *runtime.Graph, t *runtime.Task, a platform.ArchID) float64 {
	var nod float64
	for _, id := range t.Succs() {
		succ := g.Tasks[id]
		if !succ.CanRun(a) {
			continue
		}
		n := 0
		for _, p := range g.Preds(succ) {
			if g.Tasks[p].CanRun(a) {
				n++
			}
		}
		if n > 0 {
			nod += 1 / float64(n)
		}
	}
	return nod
}

// declaredGraph is a random STF graph with explicit edges on top: each
// task declares a dependency on a few earlier ones, some of which it
// already has, and a Declare made after later tasks were submitted puts
// its successor out of ID order in Succs. A fifth of the tasks are
// CPU-only and a fifth GPU-only.
func declaredGraph(seed int64) *runtime.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := runtime.NewGraph()
	hs := make([]*runtime.DataHandle, 12)
	for i := range hs {
		hs[i] = g.NewData(fmt.Sprint("h", i), 64)
	}
	modes := []runtime.AccessMode{runtime.R, runtime.W, runtime.RW, runtime.Commute}
	for i := 0; i < 300; i++ {
		cost := []float64{1 + rng.Float64(), 0.1 + rng.Float64()}
		switch rng.Intn(5) {
		case 0:
			cost[1] = 0
		case 1:
			cost[0] = 0
		}
		acc := []runtime.Access{{Handle: hs[rng.Intn(len(hs))], Mode: modes[rng.Intn(len(modes))]}}
		if rng.Intn(2) == 0 {
			acc = append(acc, runtime.Access{Handle: hs[rng.Intn(len(hs))], Mode: runtime.R})
		}
		g.Submit(runtime.TaskSpec{Kind: "k", Cost: cost, Accesses: acc})
		for d := rng.Intn(3); d > 0 && i > 1; d-- {
			to := 1 + rng.Intn(i)
			g.Declare(g.Tasks[rng.Intn(to)], g.Tasks[to])
		}
	}
	return g
}

// TestNODTableMatchesRecount: every entry of a run's NOD table is, with
// ==, the float a successor walk gives, on every task and architecture
// of each application family — typed and commuting random DAGs and a
// graph with declared edges among them — with the fill on the only
// processor and beside the reader. A run reading the table through
// MultiPrio leaves the same values behind.
func TestNODTableMatchesRecount(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	stats, _ := sparseqr.ByName("cat_ears_4_4")
	graphs := []struct {
		name string
		g    *runtime.Graph
	}{
		{"randdag", randdag.Build(randdag.Params{Layers: 12, Width: 40, TypedFraction: 0.3, CommuteShare: 0.2, Machine: m, Seed: 5})},
		{"cholesky", dense.Cholesky(dense.Params{Tiles: 10, TileSize: 512, Machine: m})},
		{"lu", dense.LU(dense.Params{Tiles: 8, TileSize: 512, Machine: m})},
		{"qr", dense.QR(dense.Params{Tiles: 8, TileSize: 512, Machine: m})},
		{"fmm", fmm.Build(fmm.Params{Particles: 4000, Height: 4, GroupSize: 8, Machine: m, Seed: 3})},
		{"sparseqr", sparseqr.Build(stats, sparseqr.Params{Machine: m, PanelWidth: 512, RowBlock: 4096})},
		{"declared", declaredGraph(7)},
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		goruntime.GOMAXPROCS(procs)
		for _, tc := range graphs {
			check := func(how string, env *runtime.Env) {
				t.Helper()
				for _, task := range tc.g.Tasks {
					for a := range m.Archs {
						arch := platform.ArchID(a)
						if got, want := env.NOD(task, arch), recountNOD(tc.g, task, arch); got != want {
							t.Fatalf("GOMAXPROCS %d, %s, %s: NOD(%d, %d) = %v, recount gives %v", procs, tc.name, how, task.ID, a, got, want)
						}
					}
				}
			}
			check("read in ID order", runtime.NewEnv(m, tc.g))
			s := New(Defaults())
			env := runtime.NewEnv(m, tc.g)
			s.Init(env)
			execute(t, s, m, tc.g)
			check("after a MultiPrio run", env)
		}
	}
}

// TestNODIsOneRecountPerSuccessor pins the NOD values MultiPrio reports
// against Eq. 2 computed from the graph alone, read twice.
func TestNODIsOneRecountPerSuccessor(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(randdag.Params{Layers: 8, Width: 30, Machine: m, Seed: 11})
	s, _ := newSched(m, g, Defaults())
	for pass := 0; pass < 2; pass++ {
		for _, task := range g.Tasks {
			for a := range m.Archs {
				arch := platform.ArchID(a)
				if got, want := s.NOD(task, arch), recountNOD(g, task, arch); got != want {
					t.Fatalf("pass %d: NOD(%d, %d) = %v, recount gives %v", pass, task.ID, a, got, want)
				}
			}
		}
	}
}

// countingModel is the oracle model counting, per (kind, architecture),
// the estimates asked of it.
type countingModel struct{ n map[[2]string]int }

func (c *countingModel) Estimate(kind string, arch platform.ArchID, footprint uint64, prior float64, hasPrior bool) (float64, bool) {
	c.n[[2]string{kind, fmt.Sprint(arch)}]++
	return perfmodel.Oracle{}.Estimate(kind, arch, footprint, prior, hasPrior)
}

// TestPushEvaluatesDeltaOncePerArch: one Push asks the model for δ(t, a)
// at most once per architecture — exactly once where t has an
// implementation — however many memory nodes it is scored for, on the
// two-architecture machine and on one with three.
func TestPushEvaluatesDeltaOncePerArch(t *testing.T) {
	for _, m := range []*platform.Machine{platform.IntelV100(platform.Config{}), triArchMachine()} {
		g := runtime.NewGraph()
		for i := 0; i < 40; i++ {
			cost := make([]float64, len(m.Archs))
			for a := range cost {
				if (i+a)%3 != 0 || a == 0 {
					cost[a] = float64(1 + (i*7+a*3)%5)
				}
			}
			g.Submit(runtime.TaskSpec{Kind: fmt.Sprint("k", i), Cost: cost})
		}
		model := &countingModel{}
		env := runtime.NewEnv(m, g)
		env.Model = model
		s := New(Defaults())
		s.Init(env)
		for _, task := range g.Tasks {
			model.n = map[[2]string]int{}
			s.Push(task)
			for a := range m.Archs {
				want := 0
				if task.CanRun(platform.ArchID(a)) {
					want = 1
				}
				if got := model.n[[2]string{task.Kind(), fmt.Sprint(a)}]; got != want {
					t.Fatalf("%s: push of task %d asked δ on arch %d %d times, want %d", m.Name, task.ID, a, got, want)
				}
			}
		}
	}
}

// TestPushPopAllocationFree: with no probe attached, scheduling a task
// (one Push, the Pops that hand it out) allocates nothing per task:
// the per-task state is a table sized at Init, and what is left is the
// run's fixed set-up (59 allocations for these 5000 tasks, the run's
// Env and state and execute's dependency counts among them).
func TestPushPopAllocationFree(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(randdag.Params{Layers: 50, Width: 100, Machine: m, Seed: 2})
	s := New(Defaults())
	env := runtime.NewEnv(m, g)
	s.Init(env)
	execute(t, s, m, g) // warm: heaps and scratch at their final sizes
	perRun := testing.AllocsPerRun(3, func() {
		s.Init(runtime.NewEnv(m, g))
		execute(t, s, m, g)
	})
	// Init's tables and execute's order slice are per run, not per task.
	if perTask := perRun / float64(len(g.Tasks)); perTask > 0.015 {
		t.Fatalf("%.0f allocations per run of %d tasks = %.3f per task, want 0", perRun, len(g.Tasks), perTask)
	}
}

// TestPushPopAllocationsSmallGraph pins the whole count on a graph
// small enough for the fixed part to show, every task pushed before the
// first Pop: 47 for the 364 tasks of a 12-tile Cholesky (the run's Env
// and state, Init's tables and the heaps' growth steps), 84 with a
// decision log and a metrics recorder attached (their growth steps, not
// an allocation per decision). Building the observer is subtracted.
func TestPushPopAllocationsSmallGraph(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := dense.Cholesky(dense.Params{Tiles: 12, TileSize: 960, Machine: m, UserPriorities: true})
	ws := workersOf(m)
	for _, tc := range []struct {
		name    string
		probe   func() obs.Probe
		perTask float64
	}{
		{"unobserved", func() obs.Probe { return nil }, 0.16},
		{"observed", func() obs.Probe { return obs.Multi{&obs.DecisionLog{}, obs.NewMetrics()} }, 0.29},
	} {
		build := testing.AllocsPerRun(3, func() { tc.probe() })
		allocs := testing.AllocsPerRun(3, func() {
			env := runtime.NewEnv(m, g)
			env.Probe = tc.probe()
			s := New(Defaults())
			s.Init(env)
			for _, task := range g.Tasks {
				s.Push(task)
			}
			for popped := 0; popped < len(g.Tasks); {
				for _, w := range ws {
					if task := s.Pop(w); task != nil {
						s.TaskDone(task, w)
						popped++
					}
				}
			}
		}) - build
		if perTask := allocs / float64(len(g.Tasks)); perTask > tc.perTask {
			t.Errorf("%s: %v allocations over %d tasks = %.2f per task, want <= %.2f", tc.name, allocs, len(g.Tasks), perTask, tc.perTask)
		}
	}
}

// TestConcurrentPushPopEmptyCheck hammers the lock-free empty check of
// Pop: poppers spin on heaps that pushers fill concurrently (run under
// -race in CI). Every pushed task must come out exactly once, and a Pop
// that follows the last Push in program order must see its task — the
// ready mirror is written before Push releases the lock.
func TestConcurrentPushPopEmptyCheck(t *testing.T) {
	m := twoArchMachine(2, 2)
	g := runtime.NewGraph()
	const n = 4000
	tasks := make([]*runtime.Task, n)
	for i := range tasks {
		cost := []float64{1, 0.5}
		if i%3 == 0 {
			cost = []float64{1, 0} // CPU only: one heap
		}
		tasks[i] = g.Submit(runtime.TaskSpec{Kind: "k", Cost: cost})
	}
	late := g.Submit(runtime.TaskSpec{Kind: "late", Cost: []float64{1, 0}})
	cfg := Defaults()
	cfg.DisableEviction = true // every pop of a non-empty heap succeeds
	s, _ := newSched(m, g, cfg)

	var popped atomic.Int64
	seen := make([]atomic.Int32, n)
	var pushers, poppers sync.WaitGroup
	for _, w := range workersOf(m) {
		poppers.Add(1)
		go func(w runtime.WorkerInfo) {
			defer poppers.Done()
			for popped.Load() < n {
				if task := s.Pop(w); task != nil {
					seen[task.ID].Add(1)
					popped.Add(1)
				}
			}
		}(w)
	}
	for p := 0; p < 2; p++ {
		pushers.Add(1)
		go func(p int) {
			defer pushers.Done()
			for i := p; i < n; i += 2 {
				s.Push(tasks[i])
			}
		}(p)
	}
	pushers.Wait()
	poppers.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("task %d popped %d times", i, c)
		}
	}
	for mem := range m.Mems {
		if rc := s.readyOn(platform.MemID(mem)); rc != 0 {
			t.Errorf("mem %d: ready count %d after draining", mem, rc)
		}
	}

	// Sequential visibility: Push then Pop on one goroutine never misses.
	s.Push(late)
	if got := s.Pop(runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}); got != late {
		t.Fatalf("Pop right after Push returned %v", got)
	}
}
