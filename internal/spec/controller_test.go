package spec_test

import (
	"math"
	"sort"
	"testing"

	"multiprio/internal/fault"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/spec"
	"multiprio/internal/trace"
)

// The arbitration spec.Controller did is the run core's now
// (runtime.RunFrame). These tests keep the Controller's names and drive
// the core from outside, through the calls an engine makes, on a clock
// the test steps by hand: two CPU workers, a FIFO policy, tasks of cost 1
// and the default policy, so a watched attempt straggles at 2.

type stepClock struct {
	now     float64
	pending []stepTimer
}

type stepTimer struct {
	at float64
	fn func()
}

func (c *stepClock) Now() float64 { return c.now }

func (c *stepClock) At(t float64, fn func()) {
	c.pending = append(c.pending, stepTimer{math.Max(t, c.now), fn})
	sort.SliceStable(c.pending, func(i, j int) bool { return c.pending[i].at < c.pending[j].at })
}

// fire advances to the earliest pending callback and runs it.
func (c *stepClock) fire(t *testing.T) {
	t.Helper()
	if len(c.pending) == 0 {
		t.Fatal("no callback pending")
	}
	next := c.pending[0]
	c.pending = c.pending[1:]
	c.now = next.at
	next.fn()
}

type fifo struct {
	env   *runtime.Env
	queue []*runtime.Task
}

func (s *fifo) Name() string                               { return "spec-fifo" }
func (s *fifo) Init(env *runtime.Env)                      { s.env = env }
func (s *fifo) Push(t *runtime.Task)                       { s.queue = append(s.queue, t) }
func (s *fifo) TaskDone(*runtime.Task, runtime.WorkerInfo) {}
func (s *fifo) Pop(w runtime.WorkerInfo) *runtime.Task {
	for len(s.queue) > 0 {
		t := s.queue[0]
		s.queue = s.queue[1:]
		if s.env.TryClaim(t) {
			return t
		}
	}
	return nil
}

type specRun struct {
	t *testing.T
	runtime.RunFrame
	m   *platform.Machine
	clk *stepClock
	q   *fifo
}

// startSpecRun opens and starts a speculating run of n independent tasks.
func startSpecRun(t *testing.T, n int) *specRun {
	t.Helper()
	g := runtime.NewGraph()
	for i := 0; i < n; i++ {
		g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{1}})
	}
	r := &specRun{t: t, m: platform.CPUOnly(2), clk: &stepClock{}, q: &fifo{}}
	cfg := runtime.BuildRunConfig([]runtime.Option{runtime.WithFaultPlan(&fault.Plan{Speculation: spec.Policy{Enabled: true}})})
	fr, err := cfg.Begin("test", r.m, g, r.q, perfmodel.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	r.RunFrame = fr
	env := runtime.NewEnv(r.m, g)
	env.Now = r.clk.Now
	r.Start(r.clk, env, func(platform.UnitID) {})
	return r
}

func (r *specRun) worker(u platform.UnitID) runtime.WorkerInfo {
	return runtime.WorkerInfo{ID: u, Arch: r.m.Units[u].Arch, Mem: r.m.Units[u].Mem}
}

// pop opens an attempt of the policy's next task on worker u.
func (r *specRun) pop(u platform.UnitID) runtime.Attempt {
	r.t.Helper()
	t := r.q.Pop(r.worker(u))
	if t == nil {
		r.t.Fatalf("worker %d: the policy has nothing to hand out", u)
	}
	return r.Popped(t, u)
}

// complete publishes a committed attempt started at start.
func (r *specRun) complete(t *runtime.Task, start float64) {
	u, _ := r.Env.RanOn(t)
	w := r.worker(u)
	r.Complete(t, w, r.Release(t, w, r.clk.now-start))
}

// stats ends the run and returns its speculation counters.
func (r *specRun) stats() spec.Stats {
	res, err := r.End(&runtime.Result{Trace: &trace.Trace{}}, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	return res.Spec
}

func TestControllerFirstSuccessWins(t *testing.T) {
	for _, replicaFirst := range []bool{false, true} {
		r := startSpecRun(t, 1)
		orig := r.pop(0)
		task := r.Task(orig)
		r.Watch(orig, math.Inf(1))
		r.clk.fire(t) // 2: the deadline queues a replica
		rep := r.pop(1)
		r.clk.now = 2.5
		first, firstStart, second, secondStart := orig, 0.0, rep, 2.0
		if replicaFirst {
			first, firstStart, second, secondStart = rep, 2, orig, 0
		}
		if !r.Commit(first, firstStart, r.clk.now) {
			t.Fatal("first completion must be effective")
		}
		r.complete(task, firstStart)
		if r.Remaining() != 0 {
			t.Fatal("task must be done after effective completion")
		}
		r.clk.now = 3
		if r.Commit(second, secondStart, r.clk.now) {
			t.Fatal("second completion must be discarded")
		}
		r.Discard(second, r.clk.now-secondStart)
		want, ranOn := 0, platform.UnitID(0)
		if replicaFirst {
			want, ranOn = 1, 1
		}
		on, _ := r.Env.RanOn(task)
		if s := r.stats(); s.ReplicaWins != want || on != ranOn || r.Env.EndAt(task) != 2.5 {
			t.Fatalf("replica first %v: ReplicaWins = %d, record w%d end %v; want %d, w%d end 2.5",
				replicaFirst, s.ReplicaWins, on, r.Env.EndAt(task), want, ranOn)
		}
	}
}

func TestControllerWastedWork(t *testing.T) {
	r := startSpecRun(t, 2)
	orig0, orig1 := r.pop(0), r.pop(1)
	r.Watch(orig0, math.Inf(1))
	r.Watch(orig1, math.Inf(1))
	r.clk.fire(t)    // 2: replica of task 0
	r.clk.fire(t)    // 2: replica of task 1
	rep0 := r.pop(1) // starts computing at 2
	rep1 := r.pop(0) // staged behind orig0, never computes
	// Each winner cancels its siblings before it commits, as the
	// simulator does: a running loser burned its time since 2, a staged
	// one nothing.
	for _, c := range []struct {
		win, lose runtime.Attempt
		at, busy  float64
	}{{orig0, rep0, 2.25, 0.25}, {orig1, rep1, 2.5, 0}} {
		r.clk.now = c.at
		if s := r.Sibling(c.win); s != c.lose {
			t.Fatalf("sibling of %d = %d, want %d", c.win, s, c.lose)
		}
		r.Discard(c.lose, c.busy)
		task := r.Task(c.win)
		if !r.Commit(c.win, 0, c.at) {
			t.Fatal("the original lost to a cancelled replica")
		}
		r.complete(task, 0)
	}
	s := r.stats()
	if s.Cancelled != 2 {
		t.Fatalf("Cancelled = %d, want 2", s.Cancelled)
	}
	if math.Abs(s.WastedWork-0.25) > 1e-12 {
		t.Fatalf("WastedWork = %v, want 0.25", s.WastedWork)
	}
}
