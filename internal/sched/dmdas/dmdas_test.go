package dmdas

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

func hetero() *platform.Machine {
	m := &platform.Machine{
		Name:  "hetero",
		Archs: []platform.Arch{{Name: "cpu"}, {Name: "gpu"}},
		Mems:  []platform.MemNode{{Name: "ram"}, {Name: "gpu-mem"}},
		Units: []platform.Unit{
			{Name: "cpu0", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "cpu1", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "gpu0", Arch: 1, Mem: 1, SpeedFactor: 1},
		},
		LinkMatrix: [][]platform.Link{
			{{}, {BandwidthBytes: 1e9, LatencySec: 0}},
			{{BandwidthBytes: 1e9, LatencySec: 0}, {}},
		},
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

func TestVariantNames(t *testing.T) {
	if New(DM).Name() != "dm" || New(DMDA).Name() != "dmda" || New(DMDAS).Name() != "dmdas" {
		t.Error("variant names wrong")
	}
}

func TestPushMapsToFastestWorker(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	s := New(DM)
	task := g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{4, 1}})
	s.Init(runtime.NewEnv(m, g))
	s.Push(task)
	if len(s.queues[2].live()) != 1 {
		t.Error("GPU-favourable task not mapped to the GPU worker")
	}
	got := s.Pop(runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1})
	if got != task {
		t.Error("GPU worker could not pop its mapped task")
	}
	if s.Pop(runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}) != nil {
		t.Error("CPU worker popped from an empty queue")
	}
}

func TestLoadBalancingAcrossEqualWorkers(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	// CPU-only tasks must spread over both CPU workers.
	for i := 0; i < 4; i++ {
		g.Submit(runtime.TaskSpec{Kind: "c", Cost: []float64{1}})
	}
	s := New(DM)
	s.Init(runtime.NewEnv(m, g))
	for _, task := range g.Tasks {
		s.Push(task)
	}
	if len(s.queues[0].live()) != 2 || len(s.queues[1].live()) != 2 {
		t.Errorf("queues = %d/%d, want 2/2", len(s.queues[0].live()), len(s.queues[1].live()))
	}
}

func TestDMDAAccountsTransferTime(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	// GPU is 2x faster on compute (1 vs 2) but the transfer (10s)
	// dominates: dmda must keep the task on CPU, dm must not.
	h := g.NewData("x", 100)
	task := g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{2, 1},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})

	sda := New(DMDA)
	envDM := runtime.NewEnv(m, g)
	// A locator that makes GPU transfers expensive.
	envDM.Locator = costlyLocator{}
	sda.Init(envDM)
	sda.Push(task)
	if len(sda.queues[2].live()) != 0 {
		t.Error("dmda ignored the transfer cost")
	}

	g2 := runtime.NewGraph()
	h2 := g2.NewData("x", 100)
	task2 := g2.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{2, 1},
		Accesses: []runtime.Access{{Handle: h2, Mode: runtime.R}}})
	envPlain := runtime.NewEnv(m, g2)
	envPlain.Locator = costlyLocator{}
	sdm := New(DM)
	sdm.Init(envPlain)
	sdm.Push(task2)
	if len(sdm.queues[2].live()) != 1 {
		t.Error("dm should ignore transfer cost and pick the GPU")
	}
}

type costlyLocator struct{}

func (costlyLocator) Resident(h int32, mem platform.MemID) (int64, bool) {
	return 100, mem == platform.MemRAM
}
func (costlyLocator) TransferEstimate(h int32, mem platform.MemID) float64 {
	if mem == platform.MemRAM {
		return 0
	}
	return 10
}

func TestDMDASSortsByPriority(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	s := New(DMDAS)
	low := g.Submit(runtime.TaskSpec{Kind: "low", Priority: 1, Cost: []float64{0, 1}})
	hi := g.Submit(runtime.TaskSpec{Kind: "hi", Priority: 9, Cost: []float64{0, 1}})
	mid := g.Submit(runtime.TaskSpec{Kind: "mid", Priority: 5, Cost: []float64{0, 1}})
	s.Init(runtime.NewEnv(m, g))
	s.Push(low)
	s.Push(hi)
	s.Push(mid)
	w := runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1}
	want := []*runtime.Task{hi, mid, low}
	for i, wt := range want {
		if got := s.Pop(w); got != wt {
			t.Fatalf("pop %d = %s, want %s", i, got.Kind(), wt.Kind())
		}
	}
}

func TestDMDASEqualPriorityIsFIFO(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	s := New(DMDAS)
	a := g.Submit(runtime.TaskSpec{Kind: "a", Cost: []float64{0, 1}})
	b := g.Submit(runtime.TaskSpec{Kind: "b", Cost: []float64{0, 1}})
	s.Init(runtime.NewEnv(m, g))
	s.Push(a)
	s.Push(b)
	w := runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1}
	if got := s.Pop(w); got != a {
		t.Errorf("pop = %s, want FIFO head a", got.Kind())
	}
}

func TestLoadDrainsOnPop(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	s := New(DM)
	task := g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{0, 1}})
	s.Init(runtime.NewEnv(m, g))
	s.Push(task)
	s.Pop(runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1})
	// A fresh task must again see an empty GPU: mapping unaffected by
	// the drained load.
	task2 := g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{0, 1}})
	s.Push(task2)
	if len(s.queues[2].live()) != 1 {
		t.Error("load accounting leaked")
	}
}

func TestEndToEndSimulation(t *testing.T) {
	// A small mixed DAG runs to completion under every variant.
	for _, v := range []Variant{DM, DMDA, DMDAS} {
		m := hetero()
		g := runtime.NewGraph()
		h := g.NewData("x", 1000)
		prev := g.Submit(runtime.TaskSpec{Kind: "init", Cost: []float64{0.1, 0.1},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
		_ = prev
		for i := 0; i < 10; i++ {
			g.Submit(runtime.TaskSpec{Kind: "work", Priority: i, Cost: []float64{0.4, 0.1},
				Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
		}
		res, err := sim.Run(m, g, New(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Makespan <= 0 {
			t.Errorf("%v: makespan %v", v, res.Makespan)
		}
	}
}

func TestPushUnrunnableTaskPanics(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	s := New(DM)
	s.Init(runtime.NewEnv(m, g))
	bad := runtime.NewGraph().Submit(runtime.TaskSpec{Kind: "bad", Cost: []float64{math.NaN(), 0}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unrunnable task")
		}
	}()
	s.Push(bad)
}

func TestDMDARPrefersDataReady(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	s := New(DMDAR)

	hRemote := g.NewData("remote", 100)
	hLocal := g.NewData("local", 100)
	far := g.Submit(runtime.TaskSpec{Kind: "far", Cost: []float64{0, 1},
		Accesses: []runtime.Access{{Handle: hRemote, Mode: runtime.R}}})
	near := g.Submit(runtime.TaskSpec{Kind: "near", Cost: []float64{0, 1},
		Accesses: []runtime.Access{{Handle: hLocal, Mode: runtime.R}}})
	env := runtime.NewEnv(m, g)
	env.Locator = gpuResidentLocator{g}
	s.Init(env)
	s.Push(far)
	s.Push(near)
	w := runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1}
	if got := s.Pop(w); got != near {
		t.Errorf("dmdar pop = %s, want the data-ready task", got.Kind())
	}
	if got := s.Pop(w); got != far {
		t.Errorf("dmdar second pop = %v, want the remaining task", got)
	}
	if s.Name() != "dmdar" {
		t.Error("name mismatch")
	}
}

// gpuResidentLocator marks only g's handle named "local" resident on
// the GPU memory node.
type gpuResidentLocator struct{ g *runtime.Graph }

func (l gpuResidentLocator) Resident(h int32, mem platform.MemID) (int64, bool) {
	d := l.g.Handles[h]
	return d.Bytes, mem == platform.MemRAM || d.Name == "local"
}
func (l gpuResidentLocator) TransferEstimate(h int32, mem platform.MemID) float64 {
	if _, ok := l.Resident(h, mem); ok {
		return 0
	}
	return 0.001
}

// TestDMDASQueueOrderMatchesStableSort: the sorted insert must leave a
// worker's queue exactly where re-sorting it stably on every push left
// it — priority descending, push order within a priority — for random
// priorities with many ties, and with Pop taking data-ready tasks out of
// the middle of the head's priority group in between.
func TestDMDASQueueOrderMatchesStableSort(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	hRemote := g.NewData("remote", 100)
	hLocal := g.NewData("local", 100)
	// The script is drawn first, so the run's Env covers its tasks: a
	// step pushes its task, or pops when it has none.
	rng := rand.New(rand.NewSource(17))
	script := make([]*runtime.Task, 3000)
	inQueue := 0
	for step := range script {
		if rng.Intn(3) > 0 || inQueue == 0 {
			h := hRemote
			if rng.Intn(4) == 0 {
				h = hLocal
			}
			// GPU-only, so every task maps to worker 2's queue.
			script[step] = g.Submit(runtime.TaskSpec{Kind: "k", Priority: rng.Intn(6) - 2, Cost: []float64{0, 1},
				Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
			inQueue++
		} else {
			inQueue--
		}
	}
	s := New(DMDAS)
	env := runtime.NewEnv(m, g)
	env.Locator = gpuResidentLocator{g} // only handles named "local" are ready on the GPU
	s.Init(env)

	type queued struct {
		t     *runtime.Task
		order int
	}
	var ref []queued
	w := runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1}
	midQueuePops := 0
	for step, task := range script {
		if task != nil {
			s.Push(task)
			ref = append(ref, queued{task, step})
			sort.SliceStable(ref, func(i, j int) bool {
				if ref[i].t.Priority != ref[j].t.Priority {
					return ref[i].t.Priority > ref[j].t.Priority
				}
				return ref[i].order < ref[j].order
			})
		} else {
			got := s.Pop(w)
			at := -1
			for i, q := range ref {
				if q.t == got {
					at = i
					break
				}
			}
			if at < 0 || ref[at].t.Priority != ref[0].t.Priority {
				t.Fatalf("step %d: popped task %v is not in the head priority group", step, got)
			}
			if at > 0 {
				midQueuePops++
			}
			ref = append(ref[:at], ref[at+1:]...)
		}
		q := queuedIDs(s, w.ID)
		if len(q) != len(ref) || len(s.queues[w.ID].live()) != len(ref) {
			t.Fatalf("step %d: queue holds %d tasks (live %d), reference %d", step, len(q), len(s.queues[w.ID].live()), len(ref))
		}
		for i := range q {
			if got := g.Tasks[q[i]]; got != ref[i].t {
				t.Fatalf("step %d: queue[%d] is task %d (prio %d), stable sort puts task %d (prio %d) there",
					step, i, got.ID, got.Priority, ref[i].t.ID, ref[i].t.Priority)
			}
		}
	}
	if midQueuePops == 0 {
		t.Fatal("no Pop removed from the middle of the queue: the test lost its teeth")
	}
}

// queuedIDs returns the IDs of the tasks mapped to worker w, front first.
func queuedIDs(s *Sched, w platform.UnitID) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []int32
	for _, e := range s.queues[w].live() {
		ids = append(ids, e.id)
	}
	return ids
}

// TestPushAllocations pins what mapping a whole graph allocates: the
// run's Env and state, Init's per-worker queues and their growth steps,
// nothing per task (64 for
// the 364 tasks of a 12-tile Cholesky on the 32 workers of Intel-V100).
func TestPushAllocations(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := dense.Cholesky(dense.Params{Tiles: 12, TileSize: 960, Machine: m, UserPriorities: true})
	allocs := testing.AllocsPerRun(3, func() {
		s := New(DMDAS)
		s.Init(runtime.NewEnv(m, g))
		for _, task := range g.Tasks {
			s.Push(task)
		}
	})
	if allocs > 80 {
		t.Errorf("Init and %d pushes allocate %v times, want <= 80", len(g.Tasks), allocs)
	}
}
