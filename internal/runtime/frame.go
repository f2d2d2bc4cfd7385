package runtime

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/obs"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/spec"
)

// Clock is the one thing the engines differ in: the run core reads the
// time and defers work through it and through nothing else. The
// simulator's is its event queue (virtual seconds), the threaded
// engine's wall timers; tests drive the core through a fake.
type Clock interface {
	// Now returns the current time in seconds since the run began.
	Now() float64
	// At runs fn at time t — as soon as possible when t is not in the
	// future — serialized with every other call into the core.
	At(t float64, fn func())
}

// RunFrame is the run core: the engine-neutral state of one run and its
// lifecycle, written once for both engines. RunConfig.Begin opens it;
// Start initializes the policy and admits the roots; Popped opens an
// attempt, and Commit, Release and Complete carry it from the policy's
// hands to the task's successors; KillWorker, WorkerDown and Abandon
// apply a fault; Watch and Discard are speculation; Abort ends a wedged
// run; End folds the statistics into the Result and closes the observer
// bracket. The core keeps every attempt of the run in one table; the
// engine owns how an attempt executes and what it holds, and the core
// never asks which engine drives it. It is not safe for concurrent use,
// and no engine uses it so: the simulator calls it from its event loop,
// the threaded engine under its run lock, every method alike. It is a
// plain value embedded in the engine's run state.
type RunFrame struct {
	// Plan is the fault plan to inject; nil when the run has none or an
	// empty one.
	Plan *fault.Plan
	// Model is the performance model the scheduler sees: the configured
	// Estimator, else the engine's default, under the plan's model noise.
	Model perfmodel.Estimator
	// Probe fans in the configured probe, the observer and the watchdog's
	// decision tail; nil when there is none of them.
	Probe obs.Probe
	// Tail is the decision ring the watchdog dumps; nil unless armed.
	Tail *DecisionTail
	// Env is the scheduler's environment, as given to Start.
	Env *Env
	// Faults counts the injected faults and the recovery they caused. The
	// core counts kills and retries; the engine adds what only it sees
	// (slowed kernels, failed transfers, lost replicas).
	Faults FaultStats

	engine   string
	observer RunObserver
	machine  *platform.Machine
	graph    *Graph
	sched    Scheduler
	arrivals []float64
	history  *perfmodel.History
	clock    Clock

	// remaining counts the tasks without an effective completion.
	remaining int
	// lastEnd is the latest EndAt committed so far: the ReadyAt of the
	// successors a completion releases. It is no earlier than any
	// predecessor's end, since each committed before the release, and no
	// later than the clock, which every commit's end stamp was read from.
	lastEnd float64
	// pushed − popped is the ready counter: what the policy (wrappers
	// included) can still hand out went in through a push and has not come
	// out of Pop, so a Pop at zero is a no-op an engine may skip.
	pushed, popped, completed int
	// tracks names the three progress tracks; set while a probe listens.
	tracks [3]string
	// dead marks killed workers (nil until the first kill), live counts
	// the others.
	dead []bool
	live int
	// attempts is the attempt table, indexed by Attempt (slot 0 is
	// NoAttempt's); first and last bound the attempts in flight, oldest
	// first, free heads the slots an ended attempt gave back, and opened
	// counts the attempts so far.
	attempts          []attempt
	first, last, free Attempt
	opened            int64
	// books is each task's record across its attempts, indexed by task
	// ID; nil without a fault plan, under which a task has one attempt.
	books []taskBook
	// spec is the plan's speculation policy, specStats its counters.
	spec      spec.Policy
	specStats spec.Stats
	// err is the first error that failed the run.
	err error
	// wd is the watchdog's configuration, deadline the wall instant Start
	// armed it for (zero when it is not armed).
	wd       Watchdog
	deadline time.Time
	// nod is the NOD table Begin started filling for a NODReader; Start
	// gives it to the Env.
	nod *nodTable
}

// Attempt names one execution attempt of a task: Popped opens it and the
// engine hands it back to Watch, Commit, Discard and Abandon. It indexes
// the core's attempt table and the engine's own per-attempt arrays. A
// slot is reused once its attempt ended, so the tables stay as long as
// the run's peak of attempts in flight.
type Attempt int32

// NoAttempt is the zero Attempt, naming none.
const NoAttempt Attempt = 0

// attempt is the core's record of one attempt.
type attempt struct {
	// t is the task; nil once the attempt ended.
	t *Task
	// n numbers the attempts in creation order, so a deadline armed for
	// one attempt never acts on a later tenant of its slot.
	n int64
	w platform.UnitID
	// replica: another attempt of t was in flight when this one opened.
	replica bool
	// prev and next link the attempts in flight, oldest first; next also
	// links the free slots.
	prev, next Attempt
}

// taskBook is one task's record across its attempts.
type taskBook struct {
	// retries counts its abandoned attempts against the plan's retry cap;
	// launched its replicas since it last restarted; live its attempts in
	// flight.
	retries, launched, live int32
	// done: an attempt committed.
	done bool
}

// Begin opens a run of g on m under s for the named engine ("sim" or
// "threaded"). def is the model the scheduler sees when no Estimator is
// configured — the one thing the engines resolve differently. The
// observer sees RunStart first, so a graph or arrival plan that fails
// validation still gets its RunEnd (delivered here; the engine just
// returns the error). The NOD table of a policy that reads it
// (NODReader) starts filling here, beside the engine's set-up.
func (c *RunConfig) Begin(engine string, m *platform.Machine, g *Graph, s Scheduler, def perfmodel.Estimator) (RunFrame, error) {
	f := RunFrame{
		Model: def, Probe: c.Probe,
		engine: engine, observer: c.Observer, machine: m, graph: g, sched: s,
		arrivals: c.Arrivals, history: c.History, wd: c.Watchdog,
		remaining: len(g.Tasks), live: len(m.Units),
		// Room for two attempts per worker: the simulator's default
		// pipeline (the threaded engine runs one).
		attempts: make([]attempt, 1, 1+2*len(m.Units)),
	}
	if c.Observer != nil {
		f.Probe = obs.Combine(c.Probe, c.Observer)
		c.Observer.RunStart(RunInfo{Machine: m, Tasks: len(g.Tasks), Scheduler: s.Name(), Engine: engine})
	}
	err := g.Validate()
	if err == nil {
		err = ValidateArrivals(c.Arrivals, g)
	}
	if err != nil {
		f.End(nil, err)
		return f, err
	}
	if r, ok := s.(NODReader); ok && r.ReadsNOD() {
		n := new(nodTable)
		n.once.Do(func() { n.start(g, len(m.Archs)) })
		f.nod = n
	}
	if c.Watchdog.Armed() {
		// Probes are read-only, so arming the watchdog never perturbs a
		// run.
		f.Tail = NewDecisionTail(DefaultWatchdogTail)
		f.Probe = obs.Combine(f.Probe, f.Tail)
	}
	if c.Estimator != nil {
		f.Model = c.Estimator
	}
	if !c.Faults.Empty() {
		f.Plan = c.Faults
		if f.Plan.ModelNoise > 0 {
			f.Model = fault.NoisyEstimator{Base: f.Model, Rel: f.Plan.ModelNoise, Seed: f.Plan.NoiseSeed}
		}
	}
	return f, nil
}

// Start begins the lifecycle on the engine's clock: the policy is
// initialized with env (whose clock, locator and prefetch hook are the
// engine's; the core fills in model and probe), every planned kill
// scheduled to call kill — the engine's side of a kill, which goes
// through KillWorker — and the roots admitted or held for their arrival.
// An armed watchdog's deadline runs from here.
func (f *RunFrame) Start(clock Clock, env *Env, kill func(platform.UnitID)) {
	f.clock, f.Env = clock, env
	if f.wd.Armed() {
		f.deadline = time.Now().Add(f.wd.Deadline)
	}
	env.Model, env.Probe = f.Model, f.Probe
	if f.nod != nil {
		env.nod = f.nod
	}
	if f.Probe != nil {
		f.tracks = [3]string{f.engine + ".submitted", f.engine + ".ready", f.engine + ".completed"}
	}
	if f.Plan != nil {
		f.books = make([]taskBook, len(f.graph.Tasks))
		f.spec = f.Plan.SpecPolicy()
	}
	f.sched.Init(env)
	for _, ev := range f.Plan.Kills() {
		clock.At(ev.At, func() { kill(ev.Worker) })
	}
	now := clock.Now()
	for _, t := range f.graph.Roots(nil) {
		f.pushed += f.admit(t, now)
	}
	f.noteProgress()
}

// Remaining returns how many tasks have no effective completion yet.
func (f *RunFrame) Remaining() int { return f.remaining }

// Ready returns how many tasks were offered to the policy and not popped.
func (f *RunFrame) Ready() int { return f.pushed - f.popped }

// Dead reports whether worker u was killed.
func (f *RunFrame) Dead(u platform.UnitID) bool { return f.dead != nil && f.dead[u] }

// Err returns the error that failed the run, nil while it is healthy.
func (f *RunFrame) Err() error { return f.err }

// fail records the run's first error; later ones are consequences.
func (f *RunFrame) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// Over reports that the run has nothing left to do — every task
// completed, or it failed: the engine stops, and a clock callback landing
// now is dropped.
func (f *RunFrame) Over() bool { return f.remaining == 0 || f.err != nil }

// noteProgress samples the progress tracks: tasks offered to the policy
// so far, tasks ready (offered and not yet handed to a worker), and
// completions.
func (f *RunFrame) noteProgress() {
	if f.Probe == nil {
		return
	}
	now, seq := f.clock.Now(), f.Env.Seq()
	f.Probe.Counter(f.tracks[0], now, seq, float64(f.pushed))
	f.Probe.Counter(f.tracks[1], now, seq, float64(f.pushed-f.popped))
	f.Probe.Counter(f.tracks[2], now, seq, float64(f.completed))
}

// noteSpec samples one of the speculation counter tracks.
func (f *RunFrame) noteSpec(track string, v float64) {
	if f.Probe != nil {
		f.Probe.Counter(track, f.clock.Now(), f.Env.Seq(), v)
	}
}

// arrivalOf returns t's submission time: 0 in batch mode.
func (f *RunFrame) arrivalOf(t *Task) float64 {
	if f.arrivals == nil {
		return 0
	}
	return f.arrivals[t.ID]
}

// admit offers t, whose dependencies are all released, to the policy as
// ready at now and returns 1 — or, when the tenant has not submitted it
// by then, holds it back until its arrival instant and returns 0.
func (f *RunFrame) admit(t *Task, now float64) int {
	if at := f.arrivalOf(t); at > now {
		f.clock.At(at, func() { f.latePush(t) })
		return 0
	}
	f.Env.state[t.ID].ReadyAt = now
	f.sched.Push(t)
	return 1
}

// latePush offers t from a clock callback — its arrival instant, the end
// of a retry backoff, a straggler deadline. The engine wakes its workers
// after a callback that pushed: the machine may have gone idle waiting.
func (f *RunFrame) latePush(t *Task) {
	if f.Over() {
		return
	}
	f.Env.state[t.ID].ReadyAt = f.clock.Now()
	f.sched.Push(t)
	f.pushed++
	f.noteProgress()
}

// Popped opens an attempt of a task the policy just handed to worker u
// and returns it — or NoAttempt for a stale speculative replica, whose
// task committed while this copy sat in a queue: the engine discards it
// unrun and probes again.
func (f *RunFrame) Popped(t *Task, u platform.UnitID) Attempt {
	f.popped++
	f.noteProgress()
	replica := false
	if f.books != nil {
		b := &f.books[t.ID]
		if b.done {
			return NoAttempt
		}
		replica = b.live > 0
		b.live++
	}
	a := f.free
	if a == NoAttempt {
		a = Attempt(len(f.attempts))
		f.attempts = append(f.attempts, attempt{})
	} else {
		f.free = f.attempts[a].next
	}
	f.opened++
	f.attempts[a] = attempt{t: t, n: f.opened, w: u, replica: replica, prev: f.last}
	if f.last == NoAttempt {
		f.first = a
	} else {
		f.attempts[f.last].next = a
	}
	f.last = a
	return a
}

// end closes attempt a: it leaves the attempts in flight and its slot is
// free for the next one. It returns a's task.
func (f *RunFrame) end(a Attempt) *Task {
	r := &f.attempts[a]
	t := r.t
	if r.prev == NoAttempt {
		f.first = r.next
	} else {
		f.attempts[r.prev].next = r.next
	}
	if r.next == NoAttempt {
		f.last = r.prev
	} else {
		f.attempts[r.next].prev = r.prev
	}
	r.t, r.next = nil, f.free
	f.free = a
	if f.books != nil {
		f.books[t.ID].live--
	}
	return t
}

// Task returns the task of attempt a.
func (f *RunFrame) Task(a Attempt) *Task { return f.attempts[a].t }

// Worker returns the worker attempt a runs on.
func (f *RunFrame) Worker(a Attempt) platform.UnitID { return f.attempts[a].w }

// Holding returns the oldest attempt in flight on worker u, NoAttempt
// when it holds none: a kill rolls them back one at a time, oldest first.
func (f *RunFrame) Holding(u platform.UnitID) Attempt {
	a := f.first
	for a != NoAttempt && f.attempts[a].w != u {
		a = f.attempts[a].next
	}
	return a
}

// inFlight returns how many attempts are in flight.
func (f *RunFrame) inFlight() (n int) {
	for a := f.first; a != NoAttempt; a = f.attempts[a].next {
		n++
	}
	return n
}

// Sibling returns the oldest other attempt in flight of a's task,
// NoAttempt when there is none: the attempts a's completion beats.
func (f *RunFrame) Sibling(a Attempt) Attempt {
	t := f.attempts[a].t
	if f.books == nil || f.books[t.ID].live < 2 {
		return NoAttempt
	}
	s := f.first
	for s != NoAttempt && (s == a || f.attempts[s].t != t) {
		s = f.attempts[s].next
	}
	return s
}

// Commit arbitrates a finished attempt. The first of its task to finish
// wins: its stamps become the task's execution record, the attempt ends
// and the engine goes on to Release and Complete. A false return is a
// loser, still in flight — the engine records the cancelled span and
// calls Discard, nothing else publishes.
func (f *RunFrame) Commit(a Attempt, startAt, endAt float64) bool {
	r := &f.attempts[a]
	t := r.t
	if f.books != nil {
		if f.books[t.ID].done {
			return false
		}
		f.books[t.ID].done = true
		if r.replica {
			f.specStats.ReplicaWins++
			f.noteSpec("spec.won", float64(f.specStats.ReplicaWins))
		}
	}
	st := &f.Env.state[t.ID]
	st.StartAt, st.EndAt, st.RanOn = startAt, endAt, r.w
	f.lastEnd = max(f.lastEnd, endAt)
	f.end(a)
	f.remaining--
	return true
}

// Release publishes what a committed completion of t on w makes
// possible: the history learns the kernel's duration (normalized by the
// unit's speed), and each successor whose last dependency this was is
// admitted, ready at the latest committed end. It returns how many it
// pushed, for Complete. Like every other lifecycle call it runs
// serialized: the engines make Commit, Release and Complete back to back,
// the threaded one in a single stay under its run lock.
func (f *RunFrame) Release(t *Task, w WorkerInfo, dur float64) (pushed int) {
	if f.history != nil {
		if sf := f.machine.Units[w.ID].SpeedFactor; sf > 0 {
			dur /= sf
		}
		f.history.Record(t.Kind(), w.Arch, t.Footprint, dur)
	}
	for _, id := range t.Succs() {
		if f.Env.state.release(id, f.graph.rows[id].n) {
			pushed += f.admit(f.graph.Tasks[id], f.lastEnd)
		}
	}
	return pushed
}

// Complete closes a committed completion after its Release pushed
// released successors: the progress tracks move, observers get the
// engine-level completion event — queue time (StartAt − ReadyAt) and
// sojourn time derive from it for every policy — and the policy its
// TaskDone.
func (f *RunFrame) Complete(t *Task, w WorkerInfo, released int) {
	f.pushed += released
	f.completed++
	f.noteProgress()
	if f.Probe != nil {
		st := &f.Env.state[t.ID]
		f.Probe.Decision(obs.Decision{
			Kind: obs.TaskDone, At: st.EndAt, Seq: f.Env.Seq(), Task: t.ID,
			Worker: int(w.ID), Mem: int(w.Mem), Arch: int(w.Arch),
			A: st.StartAt, B: st.ReadyAt,
		})
	}
	f.sched.TaskDone(t, w)
}

// KillWorker takes worker u off the machine at the current instant, in
// the core's books and in the policy's live view. It reports false when
// the kill changes nothing (the run is over, u is already dead).
// Otherwise the engine abandons what u holds and calls WorkerDown.
func (f *RunFrame) KillWorker(u platform.UnitID) bool {
	if f.Over() || f.Dead(u) {
		return false
	}
	if f.dead == nil {
		f.dead = make([]bool, len(f.machine.Units))
	}
	f.dead[u] = true
	f.live--
	f.Faults.Kills++
	f.Faults.AppliedKills = append(f.Faults.AppliedKills, AppliedKill{Unit: u, At: f.clock.Now()})
	f.Env.MarkWorkerDown(u)
	return true
}

// WorkerDown tells a policy that keeps per-worker state that u is gone;
// it may re-queue what it had routed there.
func (f *RunFrame) WorkerDown(u platform.UnitID) {
	if fo, ok := f.sched.(FaultObserver); ok {
		fo.WorkerDown(f.worker(u))
	}
}

// worker describes unit u to the policy and the kernels.
func (f *RunFrame) worker(u platform.UnitID) WorkerInfo {
	unit := f.machine.Units[u]
	return WorkerInfo{ID: u, Arch: unit.Arch, Mem: unit.Mem}
}

// Abandon ends an attempt a kill took down. If a sibling still carries
// the task (or it already committed) nothing more happens; otherwise the
// task restarts from scratch — its replica budget returns, its claim
// clears — and is pushed again after the plan's backoff, or fails the
// run once past the retry cap.
func (f *RunFrame) Abandon(a Attempt) {
	t := f.end(a)
	b := &f.books[t.ID]
	if b.live > 0 || b.done {
		return
	}
	f.Faults.Retries++
	b.retries++
	if limit := f.Plan.RetryCap(); int(b.retries) > limit {
		f.fail(fmt.Errorf("%s: task %d exceeded %d retries", f.engine, t.ID, limit))
		return
	}
	b.launched = 0
	f.Env.state.unclaim(t)
	f.clock.At(f.clock.Now()+f.Plan.RetryDelay(t.ID, int(b.retries)), func() { f.latePush(t) })
}

// Discard ends a speculation loser; busy is the kernel time it burned.
func (f *RunFrame) Discard(a Attempt, busy float64) {
	f.end(a)
	f.specStats.Cancelled++
	f.specStats.WastedWork += busy
	f.noteSpec("spec.cancelled", float64(f.specStats.Cancelled))
	f.noteSpec("spec.wasted", f.specStats.WastedWork)
}

// Watch arms the straggler deadline of attempt a, whose kernel starts now
// (speculation runs only; otherwise it does nothing). dur is the
// attempt's duration where the engine knows it at the start, +Inf where
// it cannot: an attempt that will finish by its deadline arms nothing,
// which keeps a run where nothing straggles identical to one without
// speculation. At the deadline, if a is still in flight, its task
// uncommitted and its replica budget not spent, a replica enters through
// the policy's ordinary Push — placement stays a policy decision, as for
// retries.
func (f *RunFrame) Watch(a Attempt, dur float64) {
	if !f.spec.Enabled {
		return
	}
	r := f.attempts[a]
	exp := f.Env.ExpectedDur(r.t, f.worker(r.w))
	if !f.spec.Eligible(exp) {
		return
	}
	deadline := f.spec.Deadline(exp)
	if dur <= deadline {
		return
	}
	f.clock.At(f.clock.Now()+deadline, func() {
		b := &f.books[r.t.ID]
		if cur := f.attempts[a]; f.Over() || cur.n != r.n || cur.t == nil ||
			b.done || int(b.launched) >= f.spec.ReplicaCap() {
			return
		}
		b.launched++
		f.specStats.Flagged++
		f.specStats.Launched++
		f.noteSpec("spec.flagged", float64(f.specStats.Flagged))
		f.noteSpec("spec.launched", float64(f.specStats.Launched))
		f.Env.state.unclaim(r.t)
		f.latePush(r.t)
	})
}

// Panicked is for the engines' recover sites: given the value of a panic
// caught while a Scheduler call was on the stack, it returns the error
// that fails the run, naming the engine, the policy and the call the
// engine made; any other panic is a bug and is raised again.
func (f *RunFrame) Panicked(v any) error {
	var pcs [256]uintptr
	frames := goruntime.CallersFrames(pcs[:goruntime.Callers(0, pcs[:])])
	call := ""
	for more := true; more; {
		var fr goruntime.Frame
		fr, more = frames.Next()
		switch name := fr.Function[strings.LastIndexByte(fr.Function, '.')+1:]; name {
		case "Init", "Push", "Pop", "TaskDone", "WorkerDown":
			call = name // the outermost one is the engine's call
		}
	}
	if call == "" {
		panic(v)
	}
	return fmt.Errorf("%s: scheduler %s panicked in %s: %v", f.engine, f.sched.Name(), call, v)
}

// End closes the run. The engine passes the Result it measured
// (makespan, trace, engine-specific fields) or the error that aborted
// the run; a run returned with tasks left fails with ErrStarved. End adds
// what derives from those the same way in both engines — the run's state
// among them — and delivers the observer's one RunEnd. A NOD fill the run
// started has finished when it returns.
func (f *RunFrame) End(res *Result, err error) (*Result, error) {
	switch {
	case f.nod != nil:
		f.nod.fill.Wait()
	case f.Env != nil:
		f.Env.nodTable().fill.Wait()
	}
	if err == nil && f.remaining > 0 {
		res, err = nil, f.unfinished()
	}
	if err == nil {
		res.Tasks, res.Faults, res.Spec = f.Env.state, f.Faults, f.specStats
		res.Workers = WorkerStatsFromTrace(f.machine, res.Trace, res.Faults.AppliedKills)
		res.Stream = StreamStatsOf(f.sched)
	}
	if f.observer != nil {
		f.observer.RunEnd(res, err)
	}
	return res, err
}
