package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/obs"
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

// TestPredsOnMemoMatchesGraph: every |λ−(t, a)| the memo serves — on
// the miss that fills it and on the hit after — is what a recount over
// the graph gives, on the three application families; the entries a
// whole run left behind are right too; and a second Init forgets them,
// so a scheduler reused on another graph does not answer from the last.
func TestPredsOnMemoMatchesGraph(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	graphs := map[string]*runtime.Graph{
		"randdag":  randdag.Build(randdag.Params{Layers: 12, Width: 40, TypedFraction: 0.3, Machine: m, Seed: 5}),
		"cholesky": dense.Cholesky(dense.Params{Tiles: 10, TileSize: 512, Machine: m}),
		"fmm":      fmm.Build(fmm.Params{Particles: 4000, Height: 4, GroupSize: 8, Machine: m, Seed: 3}),
	}
	s := New(Defaults())
	check := func(name string, g *runtime.Graph, onlyFilled bool) {
		t.Helper()
		for _, task := range g.Tasks {
			for a := range m.Archs {
				arch := platform.ArchID(a)
				want := task.NumPredsOn(arch, g)
				if onlyFilled {
					if e := s.predsOn[int(task.ID)*len(m.Archs)+a]; e != 0 && int(e-1) != want {
						t.Fatalf("%s: run left |λ−(%d, %d)| = %d, graph has %d", name, task.ID, a, e-1, want)
					}
					continue
				}
				if got := s.numPredsOn(task, arch); got != want {
					t.Fatalf("%s: memo miss |λ−(%d, %d)| = %d, graph has %d", name, task.ID, a, got, want)
				}
				if got := s.numPredsOn(task, arch); got != want {
					t.Fatalf("%s: memo hit |λ−(%d, %d)| = %d, graph has %d", name, task.ID, a, got, want)
				}
			}
		}
	}
	for _, name := range []string{"randdag", "cholesky", "fmm", "randdag"} {
		g := graphs[name]
		s.Init(runtime.NewEnv(m, g))
		for i, e := range s.predsOn {
			if e != 0 {
				t.Fatalf("%s: Init left memo entry %d = %d", name, i, e)
			}
		}
		if len(s.predsOn) != len(g.Tasks)*len(m.Archs) {
			t.Fatalf("%s: memo has %d entries for %d tasks x %d archs", name, len(s.predsOn), len(g.Tasks), len(m.Archs))
		}
		execute(t, s, m, g)
		filled := 0
		for _, e := range s.predsOn {
			if e != 0 {
				filled++
			}
		}
		if filled == 0 {
			t.Fatalf("%s: a whole run never consulted the memo", name)
		}
		check(name, g, true)
		check(name, g, false)
	}
}

// TestNODIsOneRecountPerSuccessor pins the NOD values themselves, memo
// cold and warm, against Eq. 2 computed from the graph alone.
func TestNODIsOneRecountPerSuccessor(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(randdag.Params{Layers: 8, Width: 30, Machine: m, Seed: 11})
	s, _ := newSched(m, g, Defaults())
	for pass := 0; pass < 2; pass++ {
		for _, task := range g.Tasks {
			for a := range m.Archs {
				arch := platform.ArchID(a)
				var want float64
				for _, id := range task.Succs() {
					succ := g.Tasks[id]
					if n := succ.NumPredsOn(arch, g); succ.CanRun(arch) && n > 0 {
						want += 1 / float64(n)
					}
				}
				if got := s.NOD(task, arch); got != want {
					t.Fatalf("pass %d: NOD(%d, %d) = %v, recount gives %v", pass, task.ID, a, got, want)
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
	execute(t, s, m, g) // warm: heaps, scratch and memo at their final sizes
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
