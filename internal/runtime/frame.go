package runtime

import (
	"fmt"
	goruntime "runtime"
	"strings"

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
// Start initializes the policy and admits the roots; Popped, Commit,
// Release and Complete carry a task from the policy's hands to its
// successors; KillWorker, WorkerDown and Abandon apply a fault; Watch
// and Discard are speculation; End folds the statistics into the Result
// and closes the observer bracket. The engine owns how an attempt
// executes and what it holds; the core never asks which engine drives
// it. It is not safe for concurrent use: the simulator calls it from its
// event loop, the threaded engine under its run lock — except Release,
// which touches nothing a concurrent call writes. It is a plain value
// embedded in the engine's run state: a run pays no heap object for it.
type RunFrame struct {
	// Plan is the fault plan to inject; nil when the run has none or an
	// empty one, so engines guard fault paths with one nil check.
	Plan *fault.Plan
	// Model is the performance model the scheduler sees: the configured
	// Estimator, else the engine's default, under the plan's model noise.
	Model perfmodel.Estimator
	// Probe fans in the configured probe, the observer and the watchdog's
	// decision tail; nil when there is none of them.
	Probe obs.Probe
	// Tail is the decision ring the watchdog dumps; nil unless armed.
	Tail *DecisionTail
	// Spec is the speculation controller Start built; nil until then and
	// when the plan does not enable speculation.
	Spec *spec.Controller
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
	// retries counts the abandoned attempts of each task against the
	// plan's retry cap; attempts counts each task's live attempts, kept
	// only under speculation — without it a task has at most one.
	retries  map[int64]int
	attempts map[int64]int
	// err is the first error that failed the run.
	err error
}

// Begin opens a run of g on m under s for the named engine ("sim" or
// "threaded"). def is the model the scheduler sees when no Estimator is
// configured — the one thing the engines resolve differently. The
// observer sees RunStart first, so a graph or arrival plan that fails
// validation still gets its RunEnd (delivered here; the engine just
// returns the error).
func (c *RunConfig) Begin(engine string, m *platform.Machine, g *Graph, s Scheduler, def perfmodel.Estimator) (RunFrame, error) {
	f := RunFrame{
		Model: def, Probe: c.Probe,
		engine: engine, observer: c.Observer, machine: m, graph: g, sched: s,
		arrivals: c.Arrivals, history: c.History,
		remaining: len(g.Tasks), live: len(m.Units),
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

// Start begins the lifecycle on the engine's clock: the speculation
// controller is built, the policy initialized with env (whose clock,
// locator and prefetch hook are the engine's; the core fills in model
// and probe), every planned kill scheduled to call kill — the engine's
// side of a kill, which goes through KillWorker — and the roots admitted
// or held for their arrival.
func (f *RunFrame) Start(clock Clock, env *Env, kill func(platform.UnitID)) {
	f.clock, f.Env = clock, env
	env.Model, env.Probe = f.Model, f.Probe
	if f.Probe != nil {
		f.tracks = [3]string{f.engine + ".submitted", f.engine + ".ready", f.engine + ".completed"}
	}
	if f.Plan != nil {
		f.retries = make(map[int64]int)
		if pol := f.Plan.SpecPolicy(); pol.Enabled {
			f.Spec = spec.New(pol, f.Probe, env.Now, env.Seq)
			f.attempts = make(map[int64]int)
		}
	}
	f.sched.Init(env)
	for _, ev := range f.Plan.Kills() {
		clock.At(ev.At, func() { kill(ev.Worker) })
	}
	for _, t := range f.graph.Roots(nil) {
		f.pushed += f.admit(t)
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

// arrivalOf returns t's submission time: 0 in batch mode.
func (f *RunFrame) arrivalOf(t *Task) float64 {
	if f.arrivals == nil {
		return 0
	}
	return f.arrivals[t.ID]
}

// admit offers t, whose dependencies are all released, to the policy and
// returns 1 — or, when the tenant has not submitted it yet, holds it back
// until its arrival instant and returns 0. The clock is read after the
// release that made t ready, so ReadyAt is no earlier than any
// predecessor's EndAt.
func (f *RunFrame) admit(t *Task) int {
	now := f.clock.Now()
	if at := f.arrivalOf(t); at > now {
		f.clock.At(at, func() { f.latePush(t) })
		return 0
	}
	t.ReadyAt = now
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
	t.ReadyAt = f.clock.Now()
	f.sched.Push(t)
	f.pushed++
	f.noteProgress()
}

// Popped accounts for a task the policy just handed to a worker. ok is
// false for a stale speculative replica — another attempt completed
// while this copy sat in a queue — which the engine discards unrun and
// probes again; replica says another attempt of t is already live.
func (f *RunFrame) Popped(t *Task) (replica, ok bool) {
	f.popped++
	f.noteProgress()
	if f.Spec == nil {
		return false, true
	}
	if f.Spec.Done(t.ID) {
		return false, false
	}
	replica = f.attempts[t.ID] > 0
	f.attempts[t.ID]++
	return replica, true
}

// dropAttempt takes one live attempt of t off the books.
func (f *RunFrame) dropAttempt(t *Task) {
	if f.attempts == nil {
		return
	}
	if f.attempts[t.ID]--; f.attempts[t.ID] <= 0 {
		delete(f.attempts, t.ID)
	}
}

// Commit arbitrates a finished attempt of t on w. The first to finish
// wins: its stamps become the task's execution record and the engine
// goes on to Release and Complete. A false return is a loser — the
// engine records the cancelled span and calls Discard, nothing else
// publishes.
func (f *RunFrame) Commit(t *Task, w WorkerInfo, replica bool, startAt, endAt float64) bool {
	if f.Spec != nil && !f.Spec.Effective(t.ID, replica) {
		return false
	}
	f.dropAttempt(t)
	t.StartAt, t.EndAt, t.RanOn = startAt, endAt, w.ID
	f.remaining--
	return true
}

// Release publishes what a committed completion of t on w makes
// possible: the history learns the kernel's duration (normalized by the
// unit's speed), and each successor whose last dependency this was is
// admitted. It returns how many it pushed, for Complete. It is the one
// lifecycle call that may run concurrently with others — the threaded
// engine makes it outside its run lock, so the policy's Push does not
// serialize the workers.
func (f *RunFrame) Release(t *Task, w WorkerInfo, dur float64) (pushed int) {
	if f.history != nil {
		if sf := f.machine.Units[w.ID].SpeedFactor; sf > 0 {
			dur /= sf
		}
		f.history.Record(t.Kind, w.Arch, t.Footprint, dur)
	}
	for _, id := range t.Succs() {
		if s := f.graph.Tasks[id]; s.ReleaseDep() {
			pushed += f.admit(s)
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
		f.Probe.Decision(obs.Decision{
			Kind: obs.TaskDone, At: t.EndAt, Seq: f.Env.Seq(), Task: t.ID,
			Worker: int(w.ID), Mem: int(w.Mem), Arch: int(w.Arch),
			A: t.StartAt, B: t.ReadyAt,
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

// Abandon gives up an attempt of t that a kill took down. If a live
// sibling still carries the task (or it already completed elsewhere)
// nothing more happens; otherwise the task restarts from scratch — its
// replica budget returns, claim and stamps clear — and is pushed again
// after the plan's backoff, or fails the run once past the retry cap.
func (f *RunFrame) Abandon(t *Task) {
	f.dropAttempt(t)
	if f.attempts[t.ID] > 0 || (f.Spec != nil && f.Spec.Done(t.ID)) {
		return
	}
	f.Faults.Retries++
	f.retries[t.ID]++
	n := f.retries[t.ID]
	if limit := f.Plan.RetryCap(); n > limit {
		f.fail(fmt.Errorf("%s: task %d exceeded %d retries", f.engine, t.ID, limit))
		return
	}
	if f.Spec != nil {
		f.Spec.Retired(t.ID)
	}
	t.ResetForRetry()
	f.clock.At(f.clock.Now()+f.Plan.RetryDelay(t.ID, n), func() { f.latePush(t) })
}

// Discard takes a speculation loser of t off the books; busy is the
// kernel time it burned.
func (f *RunFrame) Discard(t *Task, busy float64) {
	f.dropAttempt(t)
	f.Spec.CancelAttempt(t.ID, busy)
}

// Watch arms the straggler deadline of an attempt of t starting now on w
// (speculation runs only). dur is the attempt's duration where the
// engine knows it at the start, +Inf where it cannot: an attempt that
// will finish by its deadline arms nothing, which keeps a run where
// nothing straggles identical to one without speculation. At the
// deadline, if running reports this very attempt still on the unit and
// the task's replica budget allows, a replica enters through the
// policy's ordinary Push — placement stays a policy decision, as for
// retries.
func (f *RunFrame) Watch(t *Task, w WorkerInfo, dur float64, running func() bool) {
	exp := f.Env.ExpectedDur(t, w)
	if !f.Spec.Eligible(exp) {
		return
	}
	deadline := f.Spec.Deadline(exp)
	if dur <= deadline {
		return
	}
	f.clock.At(f.clock.Now()+deadline, func() {
		if f.Over() || !running() || !f.Spec.TryFlag(t.ID) {
			return
		}
		t.ResetForRetry()
		f.latePush(t)
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
// the run; End adds what derives from those the same way in both
// engines and delivers the observer's one RunEnd.
func (f *RunFrame) End(res *Result, err error) (*Result, error) {
	if err == nil {
		res.Faults = f.Faults
		if f.Spec != nil {
			res.Spec = f.Spec.Stats
			// Launching a replica clears its task's claim (ResetForRetry) so
			// a worker could pop the copy. A replica still queued when its
			// task won stays claimable until the run ends — schedulers panic
			// on claimed tasks in their queues — so the winner's claim is
			// re-asserted only now, with every pop done.
			for _, t := range f.graph.Tasks {
				if !t.Claimed() {
					t.TryClaim()
				}
			}
		}
		res.Workers = WorkerStatsFromTrace(f.machine, res.Trace, res.Faults.AppliedKills)
		res.Stream = StreamStatsOf(f.sched)
	}
	if f.observer != nil {
		f.observer.RunEnd(res, err)
	}
	return res, err
}
