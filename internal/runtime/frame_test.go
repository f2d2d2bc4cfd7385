package runtime

import (
	"math"
	"sort"
	"strings"
	"testing"

	"multiprio/internal/fault"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/spec"
)

// fakeClock is the test's Clock: pending callbacks sorted by time (ties
// in scheduling order) that the test fires by hand. No goroutine, no
// sleep, no wall time.
type fakeClock struct {
	now     float64
	pending []fakeTimer
}

type fakeTimer struct {
	at float64
	fn func()
}

func (c *fakeClock) Now() float64 { return c.now }

func (c *fakeClock) At(t float64, fn func()) {
	c.pending = append(c.pending, fakeTimer{math.Max(t, c.now), fn})
	sort.SliceStable(c.pending, func(i, j int) bool { return c.pending[i].at < c.pending[j].at })
}

// fire advances to the earliest pending callback and runs it.
func (c *fakeClock) fire(t *testing.T) {
	t.Helper()
	if len(c.pending) == 0 {
		t.Fatal("no callback pending")
	}
	next := c.pending[0]
	c.pending = c.pending[1:]
	c.now = next.at
	next.fn()
}

// due lists the times of the pending callbacks.
func (c *fakeClock) due() []float64 {
	var at []float64
	for _, p := range c.pending {
		at = append(at, p.at)
	}
	return at
}

// coreHarness drives a RunFrame the way an engine does, one call at a
// time: two CPU workers, a FIFO policy, a fake clock. held is what each
// worker holds, so a kill knows what to abandon.
type coreHarness struct {
	t *testing.T
	RunFrame
	clk   *fakeClock
	sched *fifoSched
	w     [2]WorkerInfo
	held  [2]*Task
}

// newCoreHarness opens and starts a run of g. A kill abandons what the
// dead worker holds, as the simulator does.
func newCoreHarness(t *testing.T, g *Graph, opts ...Option) *coreHarness {
	t.Helper()
	h := &coreHarness{t: t, clk: &fakeClock{}, sched: &fifoSched{}}
	m := platform.CPUOnly(2)
	for i, u := range m.Units {
		h.w[i] = WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
	}
	cfg := BuildRunConfig(opts)
	fr, err := cfg.Begin("test", m, g, h.sched, perfmodel.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	h.RunFrame = fr
	env := NewEnv(m, g)
	env.Now = h.clk.Now
	h.Start(h.clk, env, func(u platform.UnitID) {
		if !h.KillWorker(u) {
			return
		}
		if held := h.held[u]; held != nil {
			h.held[u] = nil
			h.Abandon(held)
		}
		h.WorkerDown(u)
	})
	return h
}

// pop takes the policy's next task for worker u through Popped.
func (h *coreHarness) pop(u int) (t *Task, replica, ok bool) {
	h.t.Helper()
	t = h.sched.Pop(h.w[u])
	if t == nil {
		h.t.Fatalf("worker %d: the policy has nothing to hand out", u)
	}
	replica, ok = h.Popped(t)
	if ok {
		h.held[u] = t
	}
	return t, replica, ok
}

// finish completes worker u's attempt at the current time and reports
// whether it was the effective one.
func (h *coreHarness) finish(u int, replica bool, start float64) bool {
	t := h.held[u]
	h.held[u] = nil
	if !h.Commit(t, h.w[u], replica, start, h.clk.now) {
		h.Discard(t, h.clk.now-start)
		return false
	}
	h.Complete(t, h.w[u], h.Release(t, h.w[u], h.clk.now-start))
	return true
}

func (h *coreHarness) queued() []int64 {
	var ids []int64
	for _, t := range h.sched.queue {
		ids = append(ids, t.ID)
	}
	return ids
}

func wantIDs(t *testing.T, what string, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
}

func wantDue(t *testing.T, c *fakeClock, want ...float64) {
	t.Helper()
	got := c.due()
	if len(got) != len(want) {
		t.Fatalf("callbacks pending at %v, want %v", got, want)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("callbacks pending at %v, want %v", got, want)
		}
	}
}

// fanOut returns a graph of n tasks of cost 1 where task 0 precedes
// every other.
func fanOut(n int) *Graph {
	g := NewGraph()
	root := g.Submit(cpuTask("k", 1))
	for i := 1; i < n; i++ {
		g.Declare(root, g.Submit(cpuTask("k", 1)))
	}
	return g
}

// specPlan is a fault plan with speculation on (deadline 2 × the 1 s
// cost), a 0.5 s retry backoff without jitter, and the given kills.
func specPlan(speculate bool, retries int, kills ...fault.Event) *fault.Plan {
	return &fault.Plan{
		Events: kills, MaxRetries: retries, Backoff: 0.5, BackoffCap: 0.5, Jitter: -1,
		Speculation: spec.Policy{Enabled: speculate},
	}
}

func kill(u platform.UnitID, at float64) fault.Event {
	return fault.Event{Kind: fault.KillWorker, Worker: u, At: at}
}

// TestRunCoreLifecycle drives the run core alone, deterministically:
// every transition both engines share, in the order an engine makes the
// calls, with time a number the test sets.
func TestRunCoreLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"arrivals gate roots and released successors", func(t *testing.T) {
			// 0 -> {1, 2}; 0 arrives at 0.5, 1 at 3 (after its dependency
			// is done), 2 at 0.25 (long before).
			h := newCoreHarness(t, fanOut(3), WithArrivals([]float64{0.5, 3, 0.25}))
			wantIDs(t, "queue at start", h.queued())
			wantDue(t, h.clk, 0.5)
			h.clk.fire(t)
			wantIDs(t, "queue at the root's arrival", h.queued(), 0)
			if got := h.graph.Tasks[0].ReadyAt; got != 0.5 {
				t.Errorf("root ReadyAt = %v, want its arrival 0.5", got)
			}
			h.pop(0)
			h.clk.now = 2
			h.finish(0, false, 1)
			wantIDs(t, "queue after the root completed", h.queued(), 2)
			wantDue(t, h.clk, 3)
			if got := h.graph.Tasks[2].ReadyAt; got != 2 {
				t.Errorf("successor ReadyAt = %v, want its release 2", got)
			}
			h.clk.fire(t)
			wantIDs(t, "queue at the late arrival", h.queued(), 2, 1)
			if got, ready := h.graph.Tasks[1].ReadyAt, h.Ready(); got != 3 || ready != 2 {
				t.Errorf("late successor ReadyAt = %v with %d ready, want 3 with 2", got, ready)
			}
		}},
		{"kill, abandon, backoff, re-push", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(false, 0, kill(0, 1))))
			task, _, _ := h.pop(0)
			wantDue(t, h.clk, 1)
			h.clk.fire(t) // the kill
			if !h.Dead(0) || h.Dead(1) || h.live != 1 || h.Faults.Kills != 1 || h.Faults.Retries != 1 {
				t.Fatalf("after the kill: dead %v, live %d, faults %+v", h.dead, h.live, h.Faults)
			}
			if k := h.Faults.AppliedKills; len(k) != 1 || k[0] != (AppliedKill{Unit: 0, At: 1}) {
				t.Errorf("applied kills = %+v", k)
			}
			if !h.Env.WorkerAlive(1) || h.Env.WorkerAlive(0) {
				t.Error("the policy's live view does not show worker 0 down")
			}
			if task.Claimed() {
				t.Error("the abandoned task is still claimed")
			}
			wantIDs(t, "queue during the backoff", h.queued())
			wantDue(t, h.clk, 1.5)
			h.clk.fire(t)
			wantIDs(t, "queue after the backoff", h.queued(), 0)
			if task.ReadyAt != 1.5 {
				t.Errorf("retry ReadyAt = %v, want 1.5", task.ReadyAt)
			}
			h.pop(1)
			h.clk.now = 3
			if !h.finish(1, false, 2) || h.Remaining() != 0 || h.Err() != nil {
				t.Errorf("the retry did not complete the run: %d left, err %v", h.Remaining(), h.Err())
			}
		}},
		{"a live sibling carries a killed attempt's task", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0, kill(0, 2.5))))
			task, _, _ := h.pop(0)
			h.Watch(task, h.w[0], math.Inf(1), func() bool { return h.held[0] == task })
			wantDue(t, h.clk, 2, 2.5)
			h.clk.fire(t) // the deadline: a replica is pushed
			if _, replica, ok := h.pop(1); !ok || !replica {
				t.Fatalf("second attempt: replica %v, ok %v", replica, ok)
			}
			h.clk.fire(t) // the kill takes the original
			if h.Faults.Retries != 0 || len(h.clk.pending) != 0 {
				t.Fatalf("the task was retried (%d, callbacks %v) though its replica is live", h.Faults.Retries, h.clk.due())
			}
			h.clk.now = 3
			if !h.finish(1, true, 2) || h.Spec.Stats.ReplicaWins != 1 || h.Remaining() != 0 {
				t.Errorf("the replica did not carry the task: %+v, %d left", h.Spec.Stats, h.Remaining())
			}
		}},
		{"retry budget exhausted", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(false, 1, kill(0, 1), kill(1, 2))))
			h.pop(0)
			h.clk.fire(t) // kill 0: retry 1 of 1
			h.clk.fire(t) // backoff over
			h.pop(1)
			h.clk.fire(t) // kill 1: over budget
			if err := h.Err(); err == nil || !strings.Contains(err.Error(), "test: task 0 exceeded 1 retries") {
				t.Fatalf("err = %v, want the retry budget error", err)
			}
			if len(h.clk.pending) != 0 {
				t.Errorf("a retry was scheduled past the budget: %v", h.clk.due())
			}
		}},
		{"straggler: the original wins", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0)))
			task, _, _ := h.pop(0)
			h.Watch(task, h.w[0], math.Inf(1), func() bool { return h.held[0] == task })
			h.clk.fire(t)
			if s := h.Spec.Stats; s.Flagged != 1 || s.Launched != 1 || task.Claimed() {
				t.Fatalf("deadline passed: %+v, claimed %v", s, task.Claimed())
			}
			h.pop(1)
			h.clk.now = 2.5
			if !h.finish(0, false, 0) {
				t.Fatal("the first completion lost")
			}
			h.clk.now = 3
			if h.finish(1, true, 2) {
				t.Fatal("the second completion won too")
			}
			if s := h.Spec.Stats; s.ReplicaWins != 0 || s.Cancelled != 1 || s.WastedWork != 1 || task.RanOn != 0 || task.EndAt != 2.5 {
				t.Errorf("stats %+v, record w%d end %v", s, task.RanOn, task.EndAt)
			}
		}},
		{"straggler: the replica wins", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0)))
			task, _, _ := h.pop(0)
			h.Watch(task, h.w[0], math.Inf(1), func() bool { return h.held[0] == task })
			h.clk.fire(t)
			h.pop(1)
			h.clk.now = 3
			if !h.finish(1, true, 2) || h.finish(0, false, 0) {
				t.Fatal("the replica finished first and did not win alone")
			}
			if s := h.Spec.Stats; s.ReplicaWins != 1 || s.Cancelled != 1 || task.RanOn != 1 || h.Remaining() != 0 {
				t.Errorf("stats %+v, record w%d, %d left", s, task.RanOn, h.Remaining())
			}
		}},
		{"no deadline for an attempt that ends in time, none acted on for one that ended", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(2), WithFaultPlan(specPlan(true, 0)))
			task, _, _ := h.pop(0)
			h.Watch(task, h.w[0], 2, func() bool { return true }) // known to take exactly the deadline
			wantDue(t, h.clk)
			h.Watch(task, h.w[0], 2.5, func() bool { return false }) // overruns, but gone by then
			h.clk.fire(t)
			if s := h.Spec.Stats; s.Flagged != 0 {
				t.Errorf("an attempt no longer running was flagged: %+v", s)
			}
		}},
		{"stale replica discarded at pop", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0)))
			task, _, _ := h.pop(0)
			h.Watch(task, h.w[0], math.Inf(1), func() bool { return h.held[0] == task })
			h.clk.fire(t) // the replica is queued...
			h.clk.now = 2.5
			h.finish(0, false, 0) // ...and still there when the original completes
			if _, _, ok := h.pop(1); ok {
				t.Fatal("a replica of a completed task was not discarded")
			}
			if h.Ready() != 0 {
				t.Errorf("ready counter = %d after the discard, want 0", h.Ready())
			}
		}},
		{"a callback landing after the run ended is dropped", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0, kill(1, 5))))
			task, _, _ := h.pop(0)
			h.Watch(task, h.w[0], math.Inf(1), func() bool { return true })
			h.clk.now = 1
			h.finish(0, false, 0) // the last task: the run is over
			h.clk.fire(t)         // the deadline
			h.clk.fire(t)         // the kill
			if h.Spec.Stats.Flagged != 0 || h.Faults.Kills != 0 || h.Dead(1) || len(h.queued()) != 0 {
				t.Errorf("late callbacks acted: %+v, %+v, queue %v", h.Spec.Stats, h.Faults, h.queued())
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
