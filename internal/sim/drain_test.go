package sim

import (
	"math/rand"
	"slices"
	"testing"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/trace"
)

// popCall is one Pop the engine made: who asked and what came back (-1:
// nil).
type popCall struct {
	worker platform.UnitID
	task   int64
}

// scriptedPolicy hands out its ready tasks front first, refusing a third
// of the calls at random the way a pop condition would, and logs every
// Pop. Two instances with the same seed answer the same call sequence
// identically, so two drains that ask differently diverge in the log.
type scriptedPolicy struct {
	env   *runtime.Env
	rng   *rand.Rand
	ready []*runtime.Task
	log   []popCall
}

func (p *scriptedPolicy) Name() string                               { return "scripted" }
func (p *scriptedPolicy) Init(env *runtime.Env)                      { p.env = env }
func (p *scriptedPolicy) Push(*runtime.Task)                         {}
func (p *scriptedPolicy) TaskDone(*runtime.Task, runtime.WorkerInfo) {}
func (p *scriptedPolicy) Pop(w runtime.WorkerInfo) *runtime.Task {
	call := popCall{worker: w.ID, task: -1}
	var t *runtime.Task
	if len(p.ready) > 0 && p.rng.Intn(3) > 0 {
		t, p.ready = p.ready[0], p.ready[1:]
		p.env.TryClaim(t)
		call.task = t.ID
	}
	p.log = append(p.log, call)
	return t
}

// drainFixture builds a simulation on intel-v100 stopped mid-run: random
// dead, busy, lookahead-full and wake-pending workers, a policy holding
// ready tasks, and an engine ready counter of ready+phantom — phantom (0
// or 1) being a pushed task the policy will never hand to anyone. The
// run core pushes all ready+1+phantom root tasks at Start; the stand-in
// for the running kernels is popped.
func drainFixture(seed int64, ready, phantom int) (*simulation, *scriptedPolicy) {
	rng := rand.New(rand.NewSource(seed))
	m := platform.IntelV100(platform.Config{})
	g := runtime.NewGraph()
	for i := 0; i < ready+1+phantom; i++ {
		g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{1, 1}})
	}
	pol := &scriptedPolicy{rng: rand.New(rand.NewSource(seed + 1)), ready: slices.Clone(g.Tasks[:ready])}
	var cfg runtime.RunConfig
	fr, err := cfg.Begin("sim", m, g, pol, perfmodel.Oracle{})
	if err != nil {
		panic(err)
	}
	eng := &simulation{RunFrame: fr, machine: m, graph: g, sched: pol, tr: trace.New(m)}
	eng.mm = newMemoryManager(eng, g)
	eng.workers = make([]simWorker, len(m.Units))
	eng.Start(eng, runtime.NewEnv(m, g), nil)
	busy := eng.Popped(g.Tasks[ready], 0) // stands in for every running kernel
	eng.held = make([]held, busy+1)
	for i, u := range m.Units {
		wk := &eng.workers[i]
		wk.info = runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
		wk.unit = u
		switch rng.Intn(6) {
		case 0: // computing, lookahead slot free
			wk.computing, wk.inflight = busy, 1
		case 1: // computing, lookahead slot taken
			wk.computing, wk.inflight = busy, 2
		case 2: // popped and still staging: no second pop before the kernel starts
			wk.inflight = 1
		case 3:
			eng.KillWorker(wk.info.ID)
		}
		wk.wakePending = rng.Intn(5) == 0
	}
	return eng, pol
}

// fullWalkDrain is the drain as it was before it learned to stop: every
// worker is offered a pop, whatever the ready counter says.
func fullWalkDrain(eng *simulation) {
	for i := range eng.workers {
		wk := &eng.workers[i]
		if !eng.Dead(wk.info.ID) && wk.canPop(eng.pipeline()) && !wk.wakePending {
			eng.tryPop(platform.UnitID(i))
		}
	}
}

// TestDrainStopsWhenNothingReady: the policy sees the same Pops, in the
// same order with the same results, from the drain that stops once
// pushed == popped as from the full walk, and both leave the engine in
// the same state; with nothing ready it sees none.
func TestDrainStopsWhenNothingReady(t *testing.T) {
	stoppedEarly := 0
	for seed := int64(0); seed < 400; seed++ {
		ready, phantom := int(seed%7), int(seed/7%3)/2 // mostly no phantom: the drain runs dry mid-walk
		if seed%5 == 0 {
			ready, phantom = 0, 0
		}
		eng, pol := drainFixture(seed, ready, phantom)
		ref, refPol := drainFixture(seed, ready, phantom)
		eng.drain()
		fullWalkDrain(ref)
		if !slices.Equal(pol.log, refPol.log) {
			t.Fatalf("seed %d: drain made Pops %v, the full walk %v", seed, pol.log, refPol.log)
		}
		if ready+phantom == 0 && len(pol.log) != 0 {
			t.Fatalf("seed %d: %d Pops with nothing ready", seed, len(pol.log))
		}
		if eng.Ready() != ref.Ready() || eng.seq != ref.seq || eng.pq.len() != ref.pq.len() {
			t.Fatalf("seed %d: ready/seq/queued events %d/%d/%d, the full walk leaves %d/%d/%d",
				seed, eng.Ready(), eng.seq, eng.pq.len(), ref.Ready(), ref.seq, ref.pq.len())
		}
		for i := range eng.workers {
			a, b := &eng.workers[i], &ref.workers[i]
			if a.inflight != b.inflight || a.wakePending != b.wakePending || a.computing != b.computing {
				t.Fatalf("seed %d: worker %d ends inflight=%d wake=%v, the full walk leaves inflight=%d wake=%v",
					seed, i, a.inflight, a.wakePending, b.inflight, b.wakePending)
			}
		}
		if eng.Ready() == 0 && len(pol.log) > 0 &&
			int(pol.log[len(pol.log)-1].worker) < len(eng.workers)-1 {
			stoppedEarly++
		}
	}
	if stoppedEarly == 0 {
		t.Fatal("no drain ran dry before the last worker: the test lost its teeth")
	}
}
