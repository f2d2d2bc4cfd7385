package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Stand-alone layer measurements: each drives one module directly,
// outside any job, so a PR that targets the module has a before/after
// row even where the module is too small a share of a job to show in
// `e2e_wall_s`. They take their inputs from the seed but not from the
// workload, so one traced run measures them: that of standaloneHost,
// whose graph shape they share. They read 0 everywhere else.

// standaloneHost is the workload whose traced run also measures the
// stand-alone layers.
const standaloneHost = "sim-randdag-1e5-eager"

// alonePolicies are the policies timed stand-alone, as `-exp overhead`.
var alonePolicies = []string{"multiprio", "dmdas", "heteroprio", "lws", "eager"}

const (
	aloneTiles    = 24  // Cholesky-24 ready stream: 2 600 tasks
	aloneTileSize = 960 // the tile size of the paper's Intel-V100 runs
	aloneReps     = 7
	// submitLayers is the depth of the graph-API measurement's DAG: the
	// 10^5 tasks of the first two workloads.
	submitLayers = 2000
	// smallLayers is the randdag the HEFT and perf-model layers run on:
	// 10^4 tasks, the shape of the 10^5 workloads.
	smallLayers = 200
	heapItems   = 100_000
)

// standaloneLayers runs every stand-alone measurement and stores it in
// rep. div divides the input sizes, for harness smoke runs.
func standaloneLayers(seed int64, div int, rep *report) error {
	intel, err := machineByName("intel-v100", 0)
	if err != nil {
		return err
	}
	for _, p := range alonePolicies {
		push, pop, err := schedAlone(intel, p)
		if err != nil {
			return err
		}
		rep.set("sched."+p+".push_ns", push)
		rep.set("sched."+p+".pop_ns", pop)
	}
	ops, topn := heapLayer(heapItems / div)
	rep.set("heap.ops_ns", ops)
	rep.set("heap.topn_ns", topn)
	ns, allocs, edges := submitLayer(seed, submitLayers/div)
	rep.set("graph.submit_ns_per_task", ns)
	rep.set("graph.submit_allocs_per_task", allocs)
	rep.set("graph.edges", float64(edges))
	deltaNs, heftNs, err := smallLayersRun(intel, seed, smallLayers/div)
	if err != nil {
		return err
	}
	rep.set("perfmodel.delta_ns", deltaNs)
	rep.set("heft.plan_ns_per_task", heftNs)
	return nil
}

// schedAlone drives a policy directly: Push the whole ready stream
// (dependencies ignored — this measures data-structure cost, not
// schedule quality), then Pop round-robin over the workers until
// drained. Returns median ns per Push and per Pop+TaskDone.
func schedAlone(m *Machine, policy string) (pushNs, popNs float64, err error) {
	workers := workersOf(m)
	var pushes, pops []float64
	for rep := 0; rep < aloneReps; rep++ {
		g := buildCholesky(m, aloneTiles, aloneTileSize)
		s, err := newPolicy(policy)
		if err != nil {
			return 0, 0, err
		}
		s.Init(newEnv(m, g))
		n := len(g.Tasks)
		t0 := time.Now()
		for _, t := range g.Tasks {
			s.Push(t)
		}
		pushes = append(pushes, float64(time.Since(t0).Nanoseconds())/float64(n))
		t0 = time.Now()
		popped := 0
		for i := 0; popped < n; i++ {
			w := workers[i%len(workers)]
			if t := s.Pop(w); t != nil {
				popped++
				s.TaskDone(t, w)
			}
			if i > 50*n {
				return 0, 0, fmt.Errorf("stand-alone %s drained only %d of %d tasks", policy, popped, n)
			}
		}
		pops = append(pops, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(pushes), median(pops), nil
}

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

func heapLayer(n int) (opsNs, topnNs float64) {
	scans := n / 5
	opsNs = medianOf(5, func() float64 {
		t0 := time.Now()
		ops := heapOps(n)
		return float64(time.Since(t0).Nanoseconds()) / float64(ops)
	})
	topnNs = medianOf(5, func() float64 {
		// 10 is multiprio's default locality window; the heap build is
		// timed too but is 1/30 of the scans.
		t0 := time.Now()
		heapTopN(n/10, 10, scans)
		return float64(time.Since(t0).Nanoseconds()) / float64(scans)
	})
	return opsNs, topnNs
}

// newLayeredShape generates the benchmark's own layered DAG
// description: the shape randdag gives the 10^5 workloads (width 50,
// edge probability 0.1, log-uniform costs), deterministic per seed.
func newLayeredShape(layers, width, archs int, seed int64) *layeredShape {
	rng := rand.New(rand.NewSource(seed))
	n := layers * width
	sh := &layeredShape{archs: archs, bytes: make([]int64, n), cost: make([]float64, n), reads: make([][]int32, n)}
	for i := 0; i < n; i++ {
		sh.bytes[i] = int64(rng.Intn(1<<20) + 4096)
		sh.cost[i] = 5e-3 * math.Exp((rng.Float64()-0.5)*math.Log(10))
		if l := i / width; l > 0 {
			for j := 0; j < width; j++ {
				if rng.Float64() < 0.1 {
					sh.reads[i] = append(sh.reads[i], int32((l-1)*width+j))
				}
			}
		}
	}
	return sh
}

// submitLayer times the batch graph API alone — NewGraphWithCapacity,
// NewData, SubmitBatch — on a pre-generated shape, so dependency
// inference is separated from a generator's RNG and cost-model work.
func submitLayer(seed int64, layers int) (nsPerTask, allocsPerTask float64, edges int) {
	sh := newLayeredShape(layers, randdagWidth, 2, seed)
	n := float64(len(sh.cost))
	var ns, allocs []float64
	for rep := 0; rep < 3; rep++ {
		var d time.Duration
		var mallocs float64
		m0, t0 := readMem(), time.Now()
		pause := func() { d += time.Since(t0); mallocs += readMem().since(m0).mallocs }
		resume := func() { m0, t0 = readMem(), time.Now() }
		g := submitShape(sh, pause, resume)
		pause()
		ns = append(ns, float64(d.Nanoseconds())/n)
		allocs = append(allocs, mallocs/n)
		edges = graphEdges(g)
	}
	return median(ns), median(allocs), edges
}

// smallLayersRun measures the perf-model lookup and the HEFT planner
// on a small randdag on Intel-V100: ns per Env.Delta call and ns per
// planned task.
func smallLayersRun(m *Machine, seed int64, layers int) (deltaNs, heftNsPerTask float64, err error) {
	g := buildRanddag(m, layers, randdagWidth, seed)
	n := float64(len(g.Tasks))
	env := newEnv(m, g)

	deltaNs = medianOf(9, func() float64 {
		t0 := time.Now()
		calls, _ := deltaSweep(env)
		return float64(time.Since(t0).Nanoseconds()) / float64(calls)
	})

	heftNsPerTask = medianOf(3, func() float64 {
		t0 := time.Now()
		if e := heftPlan(env); e != nil {
			err = fmt.Errorf("heft plan: %w", e)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
	return deltaNs, heftNsPerTask, err
}
