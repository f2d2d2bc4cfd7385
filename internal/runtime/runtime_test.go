package runtime

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
)

// fifoSched is a minimal correct scheduler for engine tests: one global
// FIFO, claim-checked.
type fifoSched struct {
	mu    sync.Mutex
	env   *Env
	queue []*Task
}

func (s *fifoSched) Name() string  { return "test-fifo" }
func (s *fifoSched) Init(env *Env) { s.env, s.queue = env, nil }
func (s *fifoSched) Push(t *Task) {
	s.mu.Lock()
	s.queue = append(s.queue, t)
	s.mu.Unlock()
}
func (s *fifoSched) Pop(w WorkerInfo) *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 {
		t := s.queue[0]
		s.queue = s.queue[1:]
		if t.CanRun(w.Arch) && s.env.TryClaim(t) {
			return t
		}
		if !s.env.Claimed(t) {
			// Not runnable here: requeue at the back.
			s.queue = append(s.queue, t)
			return nil
		}
	}
	return nil
}
func (s *fifoSched) TaskDone(t *Task, w WorkerInfo) {}

func cpuTask(kind string, cost float64, acc ...Access) TaskSpec {
	return TaskSpec{Kind: kind, Cost: []float64{cost}, Accesses: acc}
}

// newTestEngine is NewThreadedEngine failing the test on an error.
func newTestEngine(t testing.TB, m *platform.Machine, s Scheduler, opts ...Option) *ThreadedEngine {
	t.Helper()
	eng, err := NewThreadedEngine(m, s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAccessModeString(t *testing.T) {
	if R.String() != "R" || W.String() != "W" || RW.String() != "RW" {
		t.Error("mode names wrong")
	}
	if !W.IsWrite() || !RW.IsWrite() || R.IsWrite() {
		t.Error("IsWrite wrong")
	}
	if !R.IsRead() || !RW.IsRead() || W.IsRead() {
		t.Error("IsRead wrong")
	}
	if AccessMode(9).String() == "" {
		t.Error("unknown mode should still format")
	}
}

func TestSTFReadAfterWrite(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	w := g.Submit(cpuTask("writer", 1, Access{h, W}))
	r1 := g.Submit(cpuTask("reader", 1, Access{h, R}))
	r2 := g.Submit(cpuTask("reader", 1, Access{h, R}))

	if r1.NumPreds() != 1 || g.Preds(r1)[0] != int32(w.ID) {
		t.Error("r1 should depend on writer")
	}
	if r2.NumPreds() != 1 || g.Preds(r2)[0] != int32(w.ID) {
		t.Error("r2 should depend on writer")
	}
	if len(w.Succs()) != 2 {
		t.Errorf("writer has %d successors, want 2", len(w.Succs()))
	}
}

func TestSTFWriteAfterRead(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	w1 := g.Submit(cpuTask("w1", 1, Access{h, W}))
	r1 := g.Submit(cpuTask("r1", 1, Access{h, R}))
	r2 := g.Submit(cpuTask("r2", 1, Access{h, R}))
	w2 := g.Submit(cpuTask("w2", 1, Access{h, RW}))

	// w2 depends on both readers and transitively the first writer.
	preds := g.Preds(w2)
	has := map[*Task]bool{}
	for _, p := range preds {
		has[g.Tasks[p]] = true
	}
	if !has[r1] || !has[r2] {
		t.Errorf("w2 preds missing readers: %v", has)
	}
	if has[w1] {
		// Write-after-write goes through the readers here; w1 must not
		// be a direct pred because readers already order it.
		t.Log("note: w1 is direct pred (acceptable but not minimal)")
	}
}

func TestSTFWriteAfterWriteNoReaders(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	w1 := g.Submit(cpuTask("w1", 1, Access{h, W}))
	w2 := g.Submit(cpuTask("w2", 1, Access{h, W}))
	if w2.NumPreds() != 1 || g.Preds(w2)[0] != int32(w1.ID) {
		t.Error("w2 should depend directly on w1")
	}
}

func TestSTFIndependentHandles(t *testing.T) {
	g := NewGraph()
	h1 := g.NewData("a", 8)
	h2 := g.NewData("b", 8)
	t1 := g.Submit(cpuTask("t1", 1, Access{h1, W}))
	t2 := g.Submit(cpuTask("t2", 1, Access{h2, W}))
	if t1.NumPreds() != 0 || t2.NumPreds() != 0 {
		t.Error("tasks on independent handles must not depend on each other")
	}
	roots := g.Roots(nil)
	if len(roots) != 2 {
		t.Errorf("roots = %d, want 2", len(roots))
	}
}

func TestSTFSameTaskMultipleAccesses(t *testing.T) {
	g := NewGraph()
	h1 := g.NewData("a", 8)
	h2 := g.NewData("b", 8)
	t1 := g.Submit(cpuTask("t1", 1, Access{h1, W}, Access{h2, W}))
	t2 := g.Submit(cpuTask("t2", 1, Access{h1, R}, Access{h2, R}))
	// Two shared handles still produce a single dependency edge.
	if t2.NumPreds() != 1 {
		t.Errorf("t2 preds = %d, want deduplicated 1", t2.NumPreds())
	}
	if len(t1.Succs()) != 1 {
		t.Errorf("t1 succs = %d, want 1", len(t1.Succs()))
	}
}

func TestDeclareExplicitEdge(t *testing.T) {
	g := NewGraph()
	a := g.Submit(cpuTask("a", 1))
	b := g.Submit(cpuTask("b", 1))
	g.Declare(a, b)
	if b.NumPreds() != 1 {
		t.Error("Declare did not register the dependency")
	}
}

// TestDeclareRejectsBadEdges: an edge Declare cannot record correctly
// panics by name before the graph is touched — a nil or never-submitted
// endpoint, one submitted to another graph, a self edge, a backward one.
func TestDeclareRejectsBadEdges(t *testing.T) {
	g, other := NewGraph(), NewGraph()
	a := g.Submit(cpuTask("a", 1))
	b := g.Submit(cpuTask("b", 1))
	foreign := other.Submit(cpuTask("foreign", 1))
	for _, c := range []struct {
		name, want string
		from, to   *Task
	}{
		{"nil from", "not submitted", nil, b},
		{"nil to", "not submitted", a, nil},
		{"never submitted", "not submitted", a, &Task{}},
		{"other graph", "not submitted", foreign, b},
		{"self", "submission order", a, a},
		{"backward", "submission order", b, a},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.want)
				}
			}()
			g.Declare(c.from, c.to)
		}()
	}
	if a.NumPreds() != 0 || b.NumPreds() != 0 || len(a.Succs()) != 0 || g.Validate() != nil {
		t.Error("a rejected Declare changed the graph")
	}
}

// TestDeclareIgnoresExistingEdge: declaring an edge twice, or one STF
// inference already made, counts the predecessor once.
func TestDeclareIgnoresExistingEdge(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	a := g.Submit(cpuTask("a", 1, Access{h, W}))
	b := g.Submit(cpuTask("b", 1, Access{h, R}))
	c := g.Submit(cpuTask("c", 1))
	g.Declare(a, b) // inferred already
	g.Declare(a, c)
	g.Declare(a, c)
	if b.NumPreds() != 1 || c.NumPreds() != 1 {
		t.Errorf("NumPreds b=%d c=%d, want 1 and 1", b.NumPreds(), c.NumPreds())
	}
	if s := a.Succs(); !slices.Equal(s, []int32{1, 2}) {
		t.Errorf("Succs(a) = %v, want [1 2]", s)
	}
}

// TestThreadedRunOnUnreadGraph starts runs on graphs whose successor
// view is stale — built by Submit and Declare, grown again after a run,
// never validated or read by the test. The run frame must rebuild the
// view before the workers start: under -race, a rebuild inside a
// worker's Succs call would be reported.
func TestThreadedRunOnUnreadGraph(t *testing.T) {
	g := NewGraph()
	var cols [4]*DataHandle
	for i := range cols {
		cols[i] = g.NewData("c", 8)
	}
	grow := func(layers int) {
		for l := 0; l < layers; l++ {
			first := len(g.Tasks)
			for _, h := range cols {
				task := cpuTask("k", 1e-6, Access{h, RW})
				task.Run = func(WorkerInfo) {}
				g.Submit(task)
			}
			if first > 0 {
				g.Declare(g.Tasks[first-4], g.Tasks[first+3]) // column 0 feeds column 3
				g.Declare(g.Tasks[first-3], g.Tasks[first])   // column 1 feeds column 0: a row further in
			}
		}
	}
	eng := newTestEngine(t, platform.CPUOnly(4), &fifoSched{})
	for round := 0; round < 2; round++ {
		grow(32)
		res, err := eng.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Tasks
		for _, task := range g.Tasks {
			for _, p := range g.Preds(task) {
				if st[p].EndAt > st[task.ID].StartAt {
					t.Fatalf("round %d: task %d started at %v before predecessor %d ended at %v",
						round, task.ID, st[task.ID].StartAt, p, st[p].EndAt)
				}
			}
		}
	}
}

func TestValidateCatchesNoImplementation(t *testing.T) {
	g := NewGraph()
	g.Submit(TaskSpec{Kind: "bad", Cost: []float64{0}})
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted task with no implementation")
	}
}

func TestValidateCatchesNegativeHandle(t *testing.T) {
	g := NewGraph()
	g.NewData("bad", -1)
	g.Submit(cpuTask("t", 1))
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted negative handle size")
	}
}

func TestCanRunAndBaseCost(t *testing.T) {
	task := NewGraph().Submit(TaskSpec{Cost: []float64{2, 0, math.NaN()}})
	if !task.CanRun(0) {
		t.Error("CanRun(0) = false")
	}
	if task.CanRun(1) || task.CanRun(2) || task.CanRun(5) || task.CanRun(-1) {
		t.Error("CanRun accepted missing implementations")
	}
	if c, ok := task.BaseCost(0); !ok || c != 2 {
		t.Error("BaseCost(0) wrong")
	}
	if _, ok := task.BaseCost(1); ok {
		t.Error("BaseCost(1) should be !ok")
	}
}

func TestTryClaimOnce(t *testing.T) {
	g := NewGraph()
	task := g.Submit(cpuTask("a", 1))
	env := NewEnv(platform.CPUOnly(1), g)
	if !env.TryClaim(task) {
		t.Fatal("first claim failed")
	}
	if env.TryClaim(task) {
		t.Fatal("second claim succeeded")
	}
	if !env.Claimed(task) {
		t.Fatal("Claimed() = false after claim")
	}
	if NewEnv(platform.CPUOnly(1), g).Claimed(task) {
		t.Fatal("claim leaked into another run")
	}
}

func TestTryClaimConcurrent(t *testing.T) {
	g := NewGraph()
	task := g.Submit(cpuTask("a", 1))
	env := NewEnv(platform.CPUOnly(1), g)
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if env.TryClaim(task) {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Errorf("claim winners = %d, want exactly 1", wins.Load())
	}
}

func TestEnvDelta(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := NewGraph()
	env := NewEnv(m, g)
	task := g.Submit(TaskSpec{Kind: "k", Cost: []float64{1.0, 0.1}})
	if d := env.Delta(task, platform.ArchCPU); d != 1.0 {
		t.Errorf("Delta(cpu) = %v", d)
	}
	if d := env.Delta(task, platform.ArchGPU); d != 0.1 {
		t.Errorf("Delta(gpu) = %v", d)
	}
	cpuOnly := g.Submit(TaskSpec{Kind: "k", Cost: []float64{1.0}})
	if d := env.Delta(cpuOnly, platform.ArchGPU); !math.IsInf(d, 1) {
		t.Errorf("Delta for missing impl = %v, want +Inf", d)
	}
}

func TestEnvDeltaUsesHistory(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := NewGraph()
	env := NewEnv(m, g)
	h := perfmodel.NewHistory()
	env.Model = h
	task := g.Submit(TaskSpec{Kind: "k", Footprint: 7, Cost: []float64{1.0, 0.1}})
	if d := env.Delta(task, platform.ArchCPU); d != 1.0 {
		t.Errorf("prior-based Delta = %v", d)
	}
	h.Record("k", platform.ArchCPU, 7, 3.0)
	if d := env.Delta(task, platform.ArchCPU); d != 3.0 {
		t.Errorf("history-based Delta = %v, want 3.0", d)
	}
}

// TestEnvDeltaAllocationFree: δ(t, a) is asked several times per Push by
// every model-based policy; with the prior passed by value no estimator
// makes it allocate (a closure handed through the Estimator interface
// escaped: one allocation per query).
func TestEnvDeltaAllocationFree(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	task := NewGraph().Submit(TaskSpec{Kind: "k", Footprint: 7, Cost: []float64{1.0, 0.1}})
	calibrated := perfmodel.NewHistory()
	calibrated.Record("k", platform.ArchCPU, 7, 3.0)
	models := map[string]perfmodel.Estimator{
		"oracle":        perfmodel.Oracle{},
		"history":       calibrated,
		"noisy-history": fault.NoisyEstimator{Base: calibrated, Rel: 0.2, Seed: 9},
	}
	for name, model := range models {
		env := NewEnv(m, NewGraph())
		env.Model = model
		var sink float64
		allocs := testing.AllocsPerRun(100, func() {
			for a := range m.Archs {
				sink += env.Delta(task, platform.ArchID(a))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per δ sweep, want 0", name, allocs)
		}
	}
}

func TestLSSDH2(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := NewGraph()
	env := NewEnv(m, g)
	hr := g.NewData("r", 10) // resident on RAM (home locator)
	hw := g.NewData("w", 4)
	task := g.Submit(cpuTask("t", 1, Access{hr, R}, Access{hw, RW}))
	got := env.LSSDH2(task, platform.MemRAM)
	want := 10.0 + 4.0*4.0
	if got != want {
		t.Errorf("LSSDH2 on RAM = %v, want %v", got, want)
	}
	if got := env.LSSDH2(task, platform.MemID(1)); got != 0 {
		t.Errorf("LSSDH2 on GPU node = %v, want 0 (nothing resident)", got)
	}
}

func TestCriticalPathAndSerialTime(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	g.Submit(cpuTask("a", 2, Access{h, W}))
	g.Submit(cpuTask("b", 3, Access{h, RW}))
	g.Submit(cpuTask("c", 4)) // independent
	if got := g.SerialTime(); got != 9 {
		t.Errorf("SerialTime = %v, want 9", got)
	}
	if got := g.CriticalPathTime(); got != 5 {
		t.Errorf("CriticalPathTime = %v, want 5 (a->b chain)", got)
	}
	if got := g.TotalFlops(); got != 0 {
		t.Errorf("TotalFlops = %v, want 0", got)
	}
}

func TestThreadedEngineRunsChain(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	order := make([]string, 0, 3)
	var mu sync.Mutex
	mk := func(name string, mode AccessMode) TaskSpec {
		task := cpuTask(name, 0.001, Access{h, mode})
		task.Run = func(w WorkerInfo) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
		return task
	}
	g.Submit(mk("a", W))
	g.Submit(mk("b", RW))
	g.Submit(mk("c", R))

	eng := newTestEngine(t, platform.CPUOnly(4), &fifoSched{})
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("makespan not positive")
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("execution order %v, want [a b c]", order)
	}
}

// TestThreadedMakespanIsTheLastCompletion: Result.Makespan is the end of
// the last effective attempt — what Result.Trace.Makespan holds and the
// oracle checks — not the clock once the trace has been assembled.
// Assembling the spans of twenty thousand no-op tasks takes far longer
// than the clock's resolution.
func TestThreadedMakespanIsTheLastCompletion(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 20000; i++ {
		g.Submit(cpuTask("noop", 1))
	}
	res, err := newTestEngine(t, platform.CPUOnly(2), &fifoSched{}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, s := range res.Trace.Spans {
		if !s.Failed && !s.Cancelled && s.End > last {
			last = s.End
		}
	}
	if res.Makespan != res.Trace.Makespan || res.Makespan != last {
		t.Errorf("Makespan = %v, Trace.Makespan = %v, last completion = %v; want all equal",
			res.Makespan, res.Trace.Makespan, last)
	}
}

func TestThreadedEngineParallelism(t *testing.T) {
	g := NewGraph()
	var maxConc, conc atomic.Int32
	for i := 0; i < 8; i++ {
		task := cpuTask("p", 0.001)
		task.Run = func(w WorkerInfo) {
			c := conc.Add(1)
			for {
				m := maxConc.Load()
				if c <= m || maxConc.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			conc.Add(-1)
		}
		g.Submit(task)
	}
	eng := newTestEngine(t, platform.CPUOnly(4), &fifoSched{})
	if _, err := eng.Run(g); err != nil {
		t.Fatal(err)
	}
	if maxConc.Load() < 2 {
		t.Errorf("max concurrency = %d, want >= 2", maxConc.Load())
	}
	if maxConc.Load() > 4 {
		t.Errorf("max concurrency = %d exceeds worker count 4", maxConc.Load())
	}
}

func TestThreadedEngineRecordsHistory(t *testing.T) {
	g := NewGraph()
	spec := cpuTask("kern", 0.001)
	spec.Footprint = 42
	spec.Run = func(w WorkerInfo) { time.Sleep(2 * time.Millisecond) }
	task := g.Submit(spec)
	hist := perfmodel.NewHistory()
	eng := newTestEngine(t, platform.CPUOnly(2), &fifoSched{}, WithHistory(hist))
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	mean, ok := hist.Mean("kern", platform.ArchCPU, 42)
	if !ok || mean < 0.001 {
		t.Errorf("history mean = %v, %v; want >= 2ms", mean, ok)
	}
	if st := &res.Tasks[task.ID]; st.EndAt <= st.StartAt {
		t.Error("task execution interval not recorded")
	}
}

func TestThreadedEngineStarvationDetected(t *testing.T) {
	g := NewGraph()
	g.Submit(cpuTask("t", 1))
	refuser := &refusingSched{}
	eng := newTestEngine(t, platform.CPUOnly(2), refuser)
	_, err := eng.Run(g)
	if err == nil {
		t.Fatal("expected starvation error")
	}
	if !errors.Is(err, ErrStarved) {
		t.Errorf("err = %v, want ErrStarved", err)
	}
}

type refusingSched struct{}

func (refusingSched) Name() string               { return "refuser" }
func (refusingSched) Init(*Env)                  {}
func (refusingSched) Push(*Task)                 {}
func (refusingSched) Pop(WorkerInfo) *Task       { return nil }
func (refusingSched) TaskDone(*Task, WorkerInfo) {}

// holdingSched gives three workers one task each and holds worker 0
// inside Pop, task in hand, until 1 and 2 have each probed empty twice:
// 2 opens with an empty probe, then each gets its task once the other has
// probed empty, so its completion makes the other probe again.
type holdingSched struct {
	mu    sync.Mutex
	cond  sync.Cond
	env   *Env
	task  [3]*Task
	out   [3]bool
	empty [3]int // empty probes per worker
}

func (s *holdingSched) Name() string               { return "test-holding" }
func (s *holdingSched) Init(env *Env)              { s.env, s.cond.L = env, &s.mu }
func (s *holdingSched) Push(*Task)                 {}
func (s *holdingSched) TaskDone(*Task, WorkerInfo) {}

func (s *holdingSched) Pop(w WorkerInfo) *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int(w.ID)
	if s.out[id] || (id == 2 && s.empty[2] == 0) {
		s.empty[id]++
		s.cond.Broadcast()
		return nil
	}
	for (id == 0 && (s.empty[1] < 2 || s.empty[2] < 2)) || (id > 0 && s.empty[3-id] == 0) {
		s.cond.Wait()
	}
	s.out[id] = true
	s.env.TryClaim(s.task[id])
	return s.task[id]
}

// A worker that holds a popped task is not parked: the others probing
// empty, with nothing running, must not outvote it into ErrStarved.
func TestThreadedEngineHeldPopIsNotStarvation(t *testing.T) {
	g, s := NewGraph(), &holdingSched{}
	for i := range s.task {
		s.task[i] = g.Submit(cpuTask("own", 0.001))
	}
	eng := newTestEngine(t, platform.CPUOnly(3), s, WithWatchdog(time.Minute))
	if _, err := eng.Run(g); err != nil {
		t.Fatalf("%v, after %v empty probes", err, s.empty)
	}
}

// Property: for random chains-of-writes DAGs, submission order is a
// topological order and dependency counts equal edge counts.
func TestQuickSTFInvariants(t *testing.T) {
	f := func(nHandles, nTasks uint8, pattern []uint8) bool {
		g := NewGraph()
		nh := int(nHandles%8) + 1
		nt := int(nTasks % 64)
		handles := make([]*DataHandle, nh)
		for i := range handles {
			handles[i] = g.NewData("h", 64)
		}
		for i := 0; i < nt; i++ {
			var acc []Access
			if len(pattern) > 0 {
				p := pattern[i%len(pattern)]
				h := handles[int(p)%nh]
				mode := []AccessMode{R, W, RW}[int(p/8)%3]
				acc = append(acc, Access{h, mode})
				h2 := handles[int(p/2)%nh]
				if h2 != h {
					acc = append(acc, Access{h2, R})
				}
			}
			g.Submit(cpuTask("t", 1, acc...))
		}
		if err := g.Validate(); err != nil {
			t.Log(err)
			return false
		}
		// Edge count symmetry: sum of succ lists == sum of pred lists.
		nsucc, npred := 0, 0
		for _, task := range g.Tasks {
			nsucc += len(task.Succs())
			npred += task.NumPreds()
		}
		return nsucc == npred
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	g.Submit(cpuTask("alpha", 1, Access{h, W}))
	g.Submit(cpuTask("beta", 1, Access{h, R}))
	st := make(RunState, len(g.Tasks))
	st[0].StartAt, st[0].EndAt = 0, 1

	var sb strings.Builder
	if err := g.WriteDOT(&sb, st, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "alpha", "beta", "t0 -> t1", "[0.000-1.000]"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTTruncates(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Submit(cpuTask("t", 1))
	}
	var sb strings.Builder
	if err := g.WriteDOT(&sb, nil, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "7 more tasks") {
		t.Errorf("missing truncation marker:\n%s", sb.String())
	}
}
