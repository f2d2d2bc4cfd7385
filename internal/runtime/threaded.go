package runtime

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/trace"
)

// ThreadedEngine executes a Graph with real goroutine workers, one per
// processing unit of the machine description. It is the "this is a real
// task runtime" engine: kernels are ordinary Go functions and times are
// wall-clock seconds since the run started. Heterogeneous experiments
// use the simulator in internal/sim instead; both engines drive the same
// Scheduler implementations, take the same RunConfig and implement the
// Engine interface.
//
// The run lifecycle is the run core's (RunFrame), shared with the
// simulator; its Clock here is wall timers — kills, arrivals, retry
// backoff, straggler deadlines, the watchdog's deadline — and the
// starvation detector treats a pending one as work on its way, not as a
// livelocked policy. A wedged kernel's goroutine cannot be killed: the
// watchdog abandons it, the core's dump is the product.
type ThreadedEngine struct {
	machine *platform.Machine
	sched   Scheduler
	cfg     RunConfig
}

// NewThreadedEngine builds a threaded engine for machine m driving
// scheduler s. It returns an error — rather than panicking deep inside
// Run — when either is nil.
func NewThreadedEngine(m *platform.Machine, s Scheduler, opts ...Option) (*ThreadedEngine, error) {
	if m == nil {
		return nil, errors.New("runtime: NewThreadedEngine: nil machine")
	}
	if s == nil {
		return nil, errors.New("runtime: NewThreadedEngine: nil scheduler")
	}
	return &ThreadedEngine{machine: m, sched: s, cfg: BuildRunConfig(opts)}, nil
}

// threadedRun is one run of the threaded engine: the run core plus what
// is the engine's own — the worker goroutines and their parking, kernel
// execution, the wall timers behind the core's Clock.
type threadedRun struct {
	RunFrame
	began time.Time

	// mu is the run lock. It guards the core and every field below but
	// commuteMu, wg and fired; workers give it up around Pop and the
	// kernel only, so a task takes it twice: once to open the attempt Pop
	// returned, once to commit, release and complete it.
	mu   sync.Mutex
	cond sync.Cond
	// parked.n counts the workers inside cond.Wait that found nothing at
	// generation parked.gen. Only when that is every live worker, with no
	// attempt in flight and no timer pending, is the policy starving
	// the engine: a worker holding a popped task is not parked, however
	// often the others re-probe (policies like dmdas queue per worker).
	parked struct {
		n   int
		gen uint64
	}
	// pushGen increments whenever new work may have become visible to the
	// policy (a push, a fault reshuffling queues). A worker snapshots it
	// before releasing mu to Pop and parks on an empty Pop only if it is
	// unchanged, closing the lost-wakeup window between the unlocked Pop
	// and the Wait.
	pushGen uint64
	// extra collects the spans of failed and cancelled attempts.
	extra []trace.Span
	// commuteMu[h] serializes the commuting updaters of handle h, as the
	// simulator's commuteHeld does in virtual time; nil unless the graph
	// has a commuting task.
	commuteMu []sync.Mutex
	wg        sync.WaitGroup
	// fired is closed when the watchdog aborts the run; nil unless armed.
	fired chan struct{}

	// timers are kept for the final Stop, which sets stopped.
	timers  []*time.Timer
	stopped bool
	// held counts the Clock callbacks scheduled and not yet run: an
	// arrival, a retry, a kill or a straggler deadline may yet change what
	// the policy offers, so starvation is not declared over one.
	held int
}

// Run executes the graph and reports the run. It implements Engine.
func (e *ThreadedEngine) Run(g *Graph) (*Result, error) {
	// Without an Estimator the scheduler estimates from the recorded
	// history when there is one.
	def := perfmodel.Estimator(perfmodel.Oracle{})
	if e.cfg.History != nil {
		def = e.cfg.History
	}
	fr, err := e.cfg.Begin("threaded", e.machine, g, e.sched, def)
	if err != nil {
		return nil, err
	}
	r := &threadedRun{RunFrame: fr, began: time.Now()}
	r.cond.L = &r.mu
	if g.commutes {
		r.commuteMu = make([]sync.Mutex, len(g.Handles))
	}
	return r.End(r.run())
}

// run is the engine body inside the run frame: it returns the Result's
// measured fields (makespan, trace) or the error that aborted the run.
func (r *threadedRun) run() (*Result, error) {
	m := r.machine
	env := NewEnv(m, r.graph)
	env.Now = r.Now
	r.open(env)
	for i := range m.Units {
		r.wg.Add(1)
		go r.work(r.worker(platform.UnitID(i)))
	}
	// A wedged kernel cannot be preempted, so completion is awaited on a
	// channel and the watchdog path abandons the workers instead of
	// joining them: their completion paths see the run failed and leave.
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-r.fired:
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	for _, tm := range r.timers {
		tm.Stop()
	}
	if r.err != nil {
		return nil, r.err
	}
	// Failed and cancelled attempts are appended after the successful
	// spans, ordered by (Start, TaskID) for a stable encoding.
	sort.Slice(r.extra, func(i, j int) bool {
		if r.extra[i].Start != r.extra[j].Start {
			return r.extra[i].Start < r.extra[j].Start
		}
		return r.extra[i].TaskID < r.extra[j].TaskID
	})
	tr := TraceFromGraph(m, r.graph, r.Env.state, r.extra)
	return &Result{Makespan: tr.Makespan, Trace: tr}, nil
}

// open starts the lifecycle and arms the watchdog's timer under the run
// lock, as every later call into the core.
func (r *threadedRun) open(env *Env) {
	r.mu.Lock()
	defer r.leave()
	r.Start(r, env, r.kill)
	if !r.deadline.IsZero() {
		r.fired = make(chan struct{})
		r.after(time.Until(r.deadline), r.watchdog)
	}
}

// leave ends a goroutine's stay under the run lock — a worker exiting,
// a timer callback returning. A scheduler panic on the way becomes the
// run's error; the lock is released and the workers woken, since
// whatever happened may have changed what they wait for.
func (r *threadedRun) leave() {
	if v := recover(); v != nil {
		r.fail(r.Panicked(v))
	}
	r.pushGen++
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Now implements Clock: wall seconds since the run began.
func (r *threadedRun) Now() float64 { return time.Since(r.began).Seconds() }

// At implements Clock over a wall timer. Like every call into the core,
// it is made under the run lock, and fn runs under it.
func (r *threadedRun) At(t float64, fn func()) {
	r.held++
	r.after(time.Duration((t-r.Now())*float64(time.Second)), func() {
		fn()
		r.held--
	})
}

// after is the engine's one wall timer: d from now fn runs under the run
// lock, unless the run stopped its timers first — a timer that fired
// while the run was stopping them finds stopped set. The caller holds
// the lock; the timer is kept for that final Stop.
func (r *threadedRun) after(d time.Duration, fn func()) {
	if r.stopped {
		return
	}
	r.timers = append(r.timers, time.AfterFunc(d, func() {
		r.mu.Lock()
		defer r.leave()
		if !r.stopped {
			fn()
		}
	}))
}

// kill applies a planned kill. The dead worker's goroutine cannot be
// preempted: it abandons its own attempt when the kernel returns.
func (r *threadedRun) kill(u platform.UnitID) {
	if r.KillWorker(u) {
		r.WorkerDown(u)
	}
}

// watchdog aborts a run still incomplete at the deadline, then abandons
// its workers: a wedged kernel is never joined, also not when the run
// already failed for another reason.
func (r *threadedRun) watchdog() {
	r.Abort()
	close(r.fired)
}

// work is one processing unit's goroutine: take a task, run it, publish
// the outcome, until the run is over or the unit is killed.
func (r *threadedRun) work(w WorkerInfo) {
	defer r.wg.Done()
	r.mu.Lock()
	defer r.leave()
	for {
		a := r.next(w)
		if a == NoAttempt || !r.attempt(a, w) {
			return
		}
	}
}

// next returns the attempt w runs next, NoAttempt when w should leave:
// the run is over, w was killed, or the policy starves the engine. The
// caller holds mu; next gives it up around each Pop and inside Wait.
func (r *threadedRun) next(w WorkerInfo) Attempt {
	for {
		if r.Over() || r.Dead(w.ID) {
			return NoAttempt
		}
		gen := r.pushGen
		// With nothing pushed left un-popped the policy has nothing to
		// give (the Scheduler contract): park without the Pop, and without
		// handing the lock over for it.
		if r.Ready() > 0 {
			if t := r.pop(w); t != nil {
				if a := r.Popped(t, w.ID); a != NoAttempt {
					return a
				}
				continue // a stale replica: discarded unrun, probe again
			}
			if r.pushGen != gen {
				// Work arrived while the lock was released: the empty pop
				// is stale, probe again without parking.
				continue
			}
		}
		if r.parked.gen != gen {
			// Whoever parked before the last push has been woken and will
			// probe again.
			r.parked.n, r.parked.gen = 0, gen
		}
		r.parked.n++
		if r.parked.n == r.live && r.inFlight() == 0 && r.held == 0 {
			r.fail(r.unfinished())
			return NoAttempt
		}
		r.cond.Wait()
		if r.parked.gen == gen {
			r.parked.n--
		}
	}
}

// pop asks the policy for a task without holding the run lock. Every
// policy serializes Pop on a mutex of its own (a wrapper on its inner
// policy's), so pops still run one at a time, but one worker's Pop
// overlaps another's completion section:
// holding mu across Pop made the no-op randdag job (2·10^5 tasks, two
// workers) 4.5 % slower end to end.
func (r *threadedRun) pop(w WorkerInfo) *Task {
	r.mu.Unlock()
	defer r.mu.Lock()
	return r.sched.Pop(w)
}

// attempt runs attempt a on w and publishes the outcome. It returns false
// when w should leave: the run failed, or w was killed while the kernel
// ran.
func (r *threadedRun) attempt(a Attempt, w WorkerInfo) bool {
	t := r.Task(a)
	r.Watch(a, math.Inf(1))
	dur, slowed, startAt, endAt, panicked := r.execute(t, w)
	if slowed {
		r.Faults.Slowdowns++
	}
	if panicked != nil {
		// A panicking kernel fails the run, not the process.
		r.fail(fmt.Errorf("runtime: task %d (%s) panicked on worker %d: %v", t.ID, t.Kind(), w.ID, panicked))
	}
	span := trace.Span{Worker: w.ID, TaskID: t.ID, Kind: t.Kind(), Start: startAt, End: endAt}
	switch {
	case r.err != nil:
		// The run already aborted (watchdog, starvation, retry budget, a
		// panic): the completion is discarded, it will not be reported.
		return false
	case r.Dead(w.ID):
		// The worker was killed while the kernel ran: no successor
		// releases, no progress, and the task rolls back for a retry
		// elsewhere unless a speculative sibling carries it.
		span.Failed = true
		r.extra = append(r.extra, span)
		r.Abandon(a)
		return false
	case !r.Commit(a, startAt, endAt):
		// Another attempt of this task completed first. This one wrote to
		// task-private Go values only; nothing published.
		span.Cancelled = true
		r.extra = append(r.extra, span)
		r.Discard(a, endAt-startAt)
		return true
	}
	r.Complete(t, w, r.Release(t, w, dur))
	r.pushGen++
	r.cond.Broadcast()
	return true
}

// execute runs the kernel outside the run lock, under the task's commute
// locks, and returns the kernel duration (before any injected slowdown
// stretch), whether a slowdown window stretched it, and the attempt's
// private start/end stamps. They stay off the run's state because
// speculation runs concurrent attempts of one task; the effective
// attempt commits them under the run lock. A kernel that
// panics is recovered — the end stamp is still taken and the commute
// locks still release — and its panic value returned for the run to fail
// with.
func (r *threadedRun) execute(t *Task, w WorkerInfo) (dur float64, slowed bool, startAt, endAt float64, panicked any) {
	r.mu.Unlock()
	defer r.mu.Lock()
	// A task commutes on a handle or two: the scratch stays on the stack.
	var scratch [4]int32
	hs := t.CommuteHandles(scratch[:0])
	r.lockCommute(hs)
	startAt = r.Now()
	if run := t.Kernel(); run != nil {
		panicked = runKernel(run, w)
	}
	// The end-of-execution record must close before the commute locks
	// release: the next commuting updater stamps its StartAt as soon as
	// it acquires the lock, and exclusivity is judged on these records.
	endAt = r.Now()
	dur = endAt - startAt
	if f := r.Plan.SlowFactorAt(w.ID, startAt); f > 1 {
		// A slowed worker takes (f-1)×dur longer; the stretch happens
		// inside the commute region like the kernel itself, and only
		// it pays for a third clock read.
		time.Sleep(time.Duration((f - 1) * dur * float64(time.Second)))
		slowed = true
		endAt = r.Now()
	}
	r.unlockCommute(hs)
	return dur, slowed, startAt, endAt, panicked
}

// lockCommute acquires the commute locks of handles hs, a task's
// CommuteHandles, in that (canonical) order.
func (r *threadedRun) lockCommute(hs []int32) {
	for _, h := range hs {
		r.commuteMu[h].Lock()
	}
}

// unlockCommute releases the locks lockCommute took.
func (r *threadedRun) unlockCommute(hs []int32) {
	for i := len(hs) - 1; i >= 0; i-- {
		r.commuteMu[hs[i]].Unlock()
	}
}

// runKernel runs a task's kernel and returns the value it panicked
// with, nil when it returned normally.
func runKernel(run func(WorkerInfo), w WorkerInfo) (panicked any) {
	defer func() { panicked = recover() }()
	run(w)
	return nil
}
