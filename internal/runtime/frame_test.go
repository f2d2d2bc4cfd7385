package runtime

import (
	"math"
	"sort"
	"strings"
	"testing"

	"multiprio/internal/fault"
	"multiprio/internal/obs"
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
// time: two CPU workers, a FIFO policy, a fake clock. A kill rolls back
// everything the dead worker holds, oldest first, as the simulator does;
// abandoned lists the tasks of the attempts it rolled back, in order.
type coreHarness struct {
	t *testing.T
	RunFrame
	clk       *fakeClock
	sched     *fifoSched
	w         [2]WorkerInfo
	abandoned []int64
}

// newCoreHarness opens and starts a run of g.
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
		for a := h.Holding(u); a != NoAttempt; a = h.Holding(u) {
			h.abandoned = append(h.abandoned, h.Task(a).ID)
			h.Abandon(a)
		}
		h.WorkerDown(u)
	})
	return h
}

// pop opens an attempt of the policy's next task for worker u: NoAttempt
// for a stale replica.
func (h *coreHarness) pop(u int) (*Task, Attempt) {
	h.t.Helper()
	t := h.sched.Pop(h.w[u])
	if t == nil {
		h.t.Fatalf("worker %d: the policy has nothing to hand out", u)
	}
	return t, h.Popped(t, h.w[u].ID)
}

// finish completes attempt a, started at start, at the current time and
// reports whether it was the effective one.
func (h *coreHarness) finish(a Attempt, start float64) bool {
	t, w := h.Task(a), h.worker(h.Worker(a))
	if !h.Commit(a, start, h.clk.now) {
		h.Discard(a, h.clk.now-start)
		return false
	}
	h.Complete(t, w, h.Release(t, w, h.clk.now-start))
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

// roots returns a graph of n independent tasks of cost 1.
func roots(n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.Submit(cpuTask("k", 1))
	}
	return g
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
			if got := h.Env.state[0].ReadyAt; got != 0.5 {
				t.Errorf("root ReadyAt = %v, want its arrival 0.5", got)
			}
			_, a := h.pop(0)
			h.clk.now = 2
			h.finish(a, 1)
			wantIDs(t, "queue after the root completed", h.queued(), 2)
			wantDue(t, h.clk, 3)
			if got := h.Env.state[2].ReadyAt; got != 2 {
				t.Errorf("successor ReadyAt = %v, want its release 2", got)
			}
			h.clk.fire(t)
			wantIDs(t, "queue at the late arrival", h.queued(), 2, 1)
			if got, ready := h.Env.state[1].ReadyAt, h.Ready(); got != 3 || ready != 2 {
				t.Errorf("late successor ReadyAt = %v with %d ready, want 3 with 2", got, ready)
			}
		}},
		{"kill, abandon, backoff, re-push", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(false, 0, kill(0, 1))))
			task, _ := h.pop(0)
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
			if h.Env.Claimed(task) {
				t.Error("the abandoned task is still claimed")
			}
			wantIDs(t, "queue during the backoff", h.queued())
			wantDue(t, h.clk, 1.5)
			h.clk.fire(t)
			wantIDs(t, "queue after the backoff", h.queued(), 0)
			if h.Env.state[task.ID].ReadyAt != 1.5 {
				t.Errorf("retry ReadyAt = %v, want 1.5", h.Env.state[task.ID].ReadyAt)
			}
			_, a := h.pop(1)
			h.clk.now = 3
			if !h.finish(a, 2) || h.Remaining() != 0 || h.Err() != nil {
				t.Errorf("the retry did not complete the run: %d left, err %v", h.Remaining(), h.Err())
			}
		}},
		{"a live sibling carries a killed attempt's task", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0, kill(0, 2.5))))
			_, orig := h.pop(0)
			h.Watch(orig, math.Inf(1))
			wantDue(t, h.clk, 2, 2.5)
			h.clk.fire(t) // the deadline: a replica is pushed
			_, rep := h.pop(1)
			if rep == NoAttempt || !h.attempts[rep].replica || h.attempts[orig].replica {
				t.Fatalf("second attempt %d: replica flags %v/%v", rep, h.attempts[orig].replica, h.attempts[rep].replica)
			}
			h.clk.fire(t) // the kill takes the original
			if h.Faults.Retries != 0 || len(h.clk.pending) != 0 {
				t.Fatalf("the task was retried (%d, callbacks %v) though its replica is live", h.Faults.Retries, h.clk.due())
			}
			h.clk.now = 3
			if !h.finish(rep, 2) || h.specStats.ReplicaWins != 1 || h.Remaining() != 0 {
				t.Errorf("the replica did not carry the task: %+v, %d left", h.specStats, h.Remaining())
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
		{"a kill rolls back a running and a staged attempt oldest first", func(t *testing.T) {
			h := newCoreHarness(t, roots(3), WithFaultPlan(specPlan(false, 0, kill(0, 2))))
			_, other := h.pop(1)
			_, running := h.pop(0)
			h.clk.now = 1
			h.finish(other, 0)
			_, staged := h.pop(0) // worker 0's lookahead, in the slot other freed
			if staged >= running {
				t.Fatalf("attempts %d then %d: the newer one must sit in the lower slot", running, staged)
			}
			h.clk.fire(t)
			wantIDs(t, "tasks rolled back", h.abandoned, 1, 2)
			if h.Holding(0) != NoAttempt || h.Faults.Retries != 2 {
				t.Errorf("worker 0 still holds %d, %d retries", h.Holding(0), h.Faults.Retries)
			}
			wantDue(t, h.clk, 2.5, 2.5)
		}},
		{"straggler: the original wins", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0)))
			task, orig := h.pop(0)
			h.Watch(orig, math.Inf(1))
			h.clk.fire(t)
			if s := h.specStats; s.Flagged != 1 || s.Launched != 1 || h.Env.Claimed(task) {
				t.Fatalf("deadline passed: %+v, claimed %v", s, h.Env.Claimed(task))
			}
			_, rep := h.pop(1)
			h.clk.now = 2.5
			if !h.finish(orig, 0) {
				t.Fatal("the first completion lost")
			}
			h.clk.now = 3
			if h.finish(rep, 2) {
				t.Fatal("the second completion won too")
			}
			if s := h.specStats; s.ReplicaWins != 0 || s.Cancelled != 1 || s.WastedWork != 1 || h.Env.state[task.ID].RanOn != 0 || h.Env.state[task.ID].EndAt != 2.5 {
				t.Errorf("stats %+v, record w%d end %v", s, h.Env.state[task.ID].RanOn, h.Env.state[task.ID].EndAt)
			}
		}},
		{"straggler: the replica wins", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0)))
			task, orig := h.pop(0)
			h.Watch(orig, math.Inf(1))
			h.clk.fire(t)
			_, rep := h.pop(1)
			h.clk.now = 3
			if !h.finish(rep, 2) || h.finish(orig, 0) {
				t.Fatal("the replica finished first and did not win alone")
			}
			if s := h.specStats; s.ReplicaWins != 1 || s.Cancelled != 1 || h.Env.state[task.ID].RanOn != 1 || h.Remaining() != 0 {
				t.Errorf("stats %+v, record w%d, %d left", s, h.Env.state[task.ID].RanOn, h.Remaining())
			}
		}},
		{"replica budget, and no replica of a committed task", func(t *testing.T) {
			p := specPlan(true, 0)
			p.Speculation.MaxReplicas = 2
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(p))
			_, orig := h.pop(0)
			h.Watch(orig, math.Inf(1))
			h.clk.fire(t) // 2: replica 1 of 2
			_, rep1 := h.pop(1)
			h.Watch(rep1, math.Inf(1))
			h.clk.fire(t) // 4: replica 2 of 2
			_, rep2 := h.pop(0)
			h.Watch(rep2, math.Inf(1))
			h.clk.fire(t) // 6: the budget is spent
			if s := h.specStats; s != (spec.Stats{Flagged: 2, Launched: 2}) || len(h.queued()) != 0 {
				t.Fatalf("stats %+v, queue %v: want two replicas and no third", s, h.queued())
			}

			h = newCoreHarness(t, fanOut(2), WithFaultPlan(p))
			_, orig = h.pop(0)
			h.Watch(orig, math.Inf(1))
			h.clk.fire(t) // 2: replica 1 of 2
			_, rep1 = h.pop(1)
			h.Watch(rep1, math.Inf(1))
			h.clk.now = 3
			h.finish(orig, 0) // rep1 runs on, as in the threaded engine
			h.clk.fire(t)     // 4: rep1 overran, but its task committed
			if s := h.specStats; s.Flagged != 1 {
				t.Errorf("a committed task was flagged: %+v", s)
			}
			wantIDs(t, "queue", h.queued(), 1)
		}},
		{"a restart restores the replica budget", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0, kill(0, 2.5))))
			_, orig := h.pop(0)
			h.Watch(orig, math.Inf(1))
			h.clk.fire(t) // 2: the replica is queued, the budget spent
			h.clk.fire(t) // 2.5: the kill leaves no attempt in flight: a restart
			h.clk.fire(t) // 3: the retry joins the queued replica
			_, again := h.pop(1)
			if h.attempts[again].replica {
				t.Fatal("the restarted task's first attempt is marked a replica")
			}
			h.Watch(again, math.Inf(1))
			h.clk.fire(t) // 5: flagged again
			if s := h.specStats; s.Flagged != 2 || s.Launched != 2 || h.Faults.Retries != 1 {
				t.Errorf("stats %+v, %d retries: want a second replica after the restart", s, h.Faults.Retries)
			}
		}},
		{"the five spec tracks", func(t *testing.T) {
			m := obs.NewMetrics()
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0)), WithProbe(m))
			_, orig := h.pop(0)
			h.Watch(orig, math.Inf(1))
			h.clk.fire(t)
			_, rep := h.pop(1)
			h.clk.now = 2.125
			h.finish(rep, 2)  // the replica wins
			h.finish(orig, 0) // the original burned 2.125 s
			for _, want := range []string{"spec.flagged", "spec.launched", "spec.won", "spec.cancelled", "spec.wasted"} {
				if len(m.Samples(want)) == 0 {
					t.Errorf("missing counter track %q", want)
				}
			}
			if s := m.Samples("spec.wasted"); len(s) == 0 || s[len(s)-1].Value != 2.125 || s[len(s)-1].At != 2.125 {
				t.Errorf("spec.wasted = %v, want a last value of 2.125 at 2.125", s)
			}
		}},
		{"no deadline for an attempt that ends in time, none acted on for one that ended", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(2), WithFaultPlan(specPlan(true, 0)))
			_, a := h.pop(0)
			h.Watch(a, 2) // known to take exactly the deadline
			wantDue(t, h.clk)
			h.Watch(a, 2.5) // overruns, but gone by then
			h.clk.now = 1.5
			h.finish(a, 0)
			h.clk.fire(t)
			if s := h.specStats; s.Flagged != 0 {
				t.Errorf("an attempt no longer running was flagged: %+v", s)
			}
		}},
		{"a deadline firing after its attempt ended launches nothing", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0, kill(0, 1))))
			_, first := h.pop(0)
			h.Watch(first, math.Inf(1)) // due at 2
			h.clk.fire(t)               // 1: the kill ends the attempt
			h.clk.fire(t)               // 1.5: the retry
			_, second := h.pop(1)
			if second != first || h.Task(second) != h.Task(first) {
				t.Fatalf("the retry opened attempt %d, want the freed slot %d", second, first)
			}
			h.clk.fire(t) // 2: the first attempt's deadline, its slot now the second's
			if s := h.specStats; s.Flagged != 0 || len(h.queued()) != 0 {
				t.Errorf("the ended attempt's deadline launched a replica: %+v, queue %v", s, h.queued())
			}
		}},
		{"stale replica discarded at pop", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0)))
			_, a := h.pop(0)
			h.Watch(a, math.Inf(1))
			h.clk.fire(t) // the replica is queued...
			h.clk.now = 2.5
			h.finish(a, 0) // ...and still there when the original completes
			if _, rep := h.pop(1); rep != NoAttempt || h.Holding(1) != NoAttempt {
				t.Fatalf("a replica of a completed task opened attempt %d", rep)
			}
			if h.Ready() != 0 {
				t.Errorf("ready counter = %d after the discard, want 0", h.Ready())
			}
		}},
		{"a callback landing after the run ended is dropped", func(t *testing.T) {
			h := newCoreHarness(t, fanOut(1), WithFaultPlan(specPlan(true, 0, kill(1, 5))))
			_, a := h.pop(0)
			h.Watch(a, math.Inf(1))
			h.clk.now = 1
			h.finish(a, 0) // the last task: the run is over
			h.clk.fire(t)  // the deadline
			h.clk.fire(t)  // the kill
			if h.specStats.Flagged != 0 || h.Faults.Kills != 0 || h.Dead(1) || len(h.queued()) != 0 {
				t.Errorf("late callbacks acted: %+v, %+v, queue %v", h.specStats, h.Faults, h.queued())
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
