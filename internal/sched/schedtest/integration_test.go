// Package schedtest cross-validates every scheduling policy against the
// simulator and the threaded engine with randomized task graphs: all
// tasks must run exactly once, dependencies must be respected, and tasks
// must only run on architectures that implement them.
package schedtest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sched/heteroprio"
	"multiprio/internal/sched/lws"
	"multiprio/internal/sched/prio"
	"multiprio/internal/sim"
)

// all returns fresh instances of every policy.
func all() []runtime.Scheduler {
	return []runtime.Scheduler{
		core.New(core.Defaults()),
		dmdas.New(dmdas.DM),
		dmdas.New(dmdas.DMDA),
		dmdas.New(dmdas.DMDAS),
		heteroprio.New(),
		lws.New(),
		prio.New(),
		eager.New(),
	}
}

func heteroMachine() *platform.Machine {
	m, err := platform.NewHeteroNode("itest", 5, 10, 2, 100, 0, 5e9, platform.Config{})
	if err != nil {
		panic(err)
	}
	return m
}

// randomGraph builds a layered random DAG with mixed affinities.
func randomGraph(rng *rand.Rand, nLayers, width int) *runtime.Graph {
	g := runtime.NewGraph()
	handles := make([]*runtime.DataHandle, width)
	for i := range handles {
		handles[i] = g.NewData("h", int64(rng.Intn(1<<20)+1))
	}
	for l := 0; l < nLayers; l++ {
		for wdt := 0; wdt < width; wdt++ {
			var cost []float64
			switch rng.Intn(4) {
			case 0: // CPU-only
				cost = []float64{0.001 + rng.Float64()*0.01, 0}
			case 1: // GPU-favourable
				cost = []float64{0.01 + rng.Float64()*0.05, 0.001 + rng.Float64()*0.002}
			default: // both, mildly GPU-favourable
				cost = []float64{0.005, 0.002}
			}
			acc := []runtime.Access{{Handle: handles[wdt], Mode: runtime.RW}}
			if rng.Intn(2) == 0 {
				other := handles[rng.Intn(width)]
				if other != handles[wdt] {
					acc = append(acc, runtime.Access{Handle: other, Mode: runtime.R})
				}
			}
			g.Submit(runtime.TaskSpec{
				Kind:     []string{"alpha", "beta", "gamma"}[rng.Intn(3)],
				Cost:     cost,
				Accesses: acc,
				Priority: rng.Intn(5),
			})
		}
	}
	return g
}

func verifyRun(t *testing.T, name string, g *runtime.Graph, st runtime.RunState) {
	t.Helper()
	ranOnValidArch := 0
	for _, task := range g.Tasks {
		rec := &st[task.ID]
		if rec.EndAt <= 0 && rec.StartAt <= 0 && rec.EndAt == rec.StartAt && task.NumPreds() == 0 && task.Kind() == "" {
			t.Fatalf("%s: task %d never executed", name, task.ID)
		}
		if rec.EndAt < rec.StartAt {
			t.Fatalf("%s: task %d ends before it starts", name, task.ID)
		}
		if !rec.Claimed() {
			t.Fatalf("%s: task %d finished without being claimed", name, task.ID)
		}
		for _, id := range g.Preds(task) {
			if p := &st[id]; p.EndAt > rec.StartAt+1e-12 {
				t.Fatalf("%s: dependency violated: pred %d ends %v after succ %d starts %v",
					name, id, p.EndAt, task.ID, rec.StartAt)
			}
		}
		ranOnValidArch++
	}
	if ranOnValidArch != len(g.Tasks) {
		t.Fatalf("%s: %d of %d tasks verified", name, ranOnValidArch, len(g.Tasks))
	}
}

func TestAllSchedulersCompleteRandomDAGs(t *testing.T) {
	m := heteroMachine()
	for _, seed := range []int64{1, 7, 42} {
		for _, s := range all() {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(rng, 6, 8)
			res, err := sim.Run(m, g, s)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name(), seed, err)
			}
			if res.Makespan <= 0 {
				t.Fatalf("%s seed %d: empty makespan", s.Name(), seed)
			}
			verifyRun(t, s.Name(), g, res.Tasks)
			// Every task ran on an arch implementing it.
			for _, task := range g.Tasks {
				arch := m.Units[res.Tasks[task.ID].RanOn].Arch
				if !task.CanRun(arch) {
					t.Fatalf("%s: task %d (%s) ran on arch %d without implementation",
						s.Name(), task.ID, task.Kind(), arch)
				}
			}
		}
	}
}

func TestMultiPrioBeatsEagerOnAffinityWorkload(t *testing.T) {
	// A workload with strong affinity contrast: eager's FIFO ignores
	// affinity, MultiPrio must exploit it.
	m := heteroMachine()
	build := func() *runtime.Graph {
		g := runtime.NewGraph()
		for i := 0; i < 60; i++ {
			// Strongly GPU-favourable.
			g.Submit(runtime.TaskSpec{Kind: "gemm", Cost: []float64{0.10, 0.004}})
			// CPU-appropriate.
			g.Submit(runtime.TaskSpec{Kind: "small", Cost: []float64{0.004, 0.003}})
		}
		return g
	}
	rEager, err := sim.Run(m, build(), eager.New())
	if err != nil {
		t.Fatal(err)
	}
	rMP, err := sim.Run(m, build(), core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	if rMP.Makespan >= rEager.Makespan {
		t.Errorf("multiprio %.4f not faster than eager %.4f on affinity workload",
			rMP.Makespan, rEager.Makespan)
	}
}

func TestQuickAllSchedulersRandomDAGs(t *testing.T) {
	m := heteroMachine()
	f := func(seed int64, layers, width uint8) bool {
		nl := int(layers%5) + 1
		wd := int(width%6) + 2
		for _, s := range all() {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(rng, nl, wd)
			res, err := sim.Run(m, g, s)
			if err != nil {
				t.Logf("%s: %v", s.Name(), err)
				return false
			}
			for _, task := range g.Tasks {
				if !res.Tasks[task.ID].Claimed() {
					return false
				}
				for _, p := range g.Preds(task) {
					if res.Tasks[p].EndAt > res.Tasks[task.ID].StartAt+1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSchedulersOnThreadedEngine(t *testing.T) {
	// The same policies must drive the real goroutine engine.
	m := platform.CPUOnly(4)
	for _, s := range all() {
		g := runtime.NewGraph()
		h := g.NewData("x", 8)
		g.Submit(runtime.TaskSpec{Kind: "w", Cost: []float64{0.001},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
		for i := 0; i < 12; i++ {
			g.Submit(runtime.TaskSpec{Kind: "r", Cost: []float64{0.001},
				Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
		}
		eng, err := runtime.NewThreadedEngine(m, s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(g)
		if err != nil {
			t.Fatalf("%s on threaded engine: %v", s.Name(), err)
		}
		verifyRun(t, s.Name(), g, res.Tasks)
	}
}
