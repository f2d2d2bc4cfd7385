package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/obs"
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
// Kills, arrivals and retry backoff are wall-clock timers; the
// starvation detector treats a pending arrival or retry as work on its
// way, not as a livelocked policy. A wedged kernel's goroutine cannot be
// killed: the watchdog abandons it, the dump is the product.
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

// ErrStarved is returned when every worker is idle, no task is running,
// no retry is pending, unfinished tasks remain, and the scheduler still
// refuses to hand out work: a livelocked policy.
var ErrStarved = errors.New("runtime: scheduler starved all workers with tasks remaining")

// taskRun is one in-flight execution attempt: the monitor judges
// straggling against it, the watchdog dump lists it, and the completion
// path carries its private stamps (per-attempt, because speculation
// runs concurrent attempts of one task which must not race on the
// shared Task fields; the effective attempt commits them).
type taskRun struct {
	t *Task
	w WorkerInfo
	// replica marks a speculative replica attempt.
	replica bool
	// start is when the attempt was popped (wall seconds since run
	// start).
	start    float64
	expected float64
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
	start := time.Now()
	now := func() float64 { return time.Since(start).Seconds() }
	// All controller calls happen under the run lock; the nil seq matches
	// the engine's unsequenced probes.
	fr.Speculation(now, nil)
	return fr.End(e.run(g, fr, now))
}

// run is the engine body inside the shared frame: it returns the
// Result's measured fields (makespan, trace, fault counters) or the
// error that aborted the run.
func (e *ThreadedEngine) run(g *Graph, fr RunFrame, now func() float64) (*Result, error) {
	// Locals, so that the closures below capture these by value and not
	// the frame.
	plan, probe, ctl, wdTail := fr.Plan, fr.Probe, fr.Spec, fr.Tail
	env := NewEnv(e.machine, g)
	env.Now = now
	env.Model = fr.Model
	env.Probe = probe
	e.sched.Init(env)

	trackRuns := ctl != nil || e.cfg.Watchdog.Armed()

	var (
		mu        sync.Mutex
		cond      = sync.Cond{L: &mu}
		remaining = len(g.Tasks)
		running   int
		failed    error
		finished  bool
		// parked.n counts the workers inside cond.Wait whose Pop came back
		// empty at generation parked.gen (one captured variable, one
		// allocation per run). Only when that is every live worker, with
		// nothing running and no retry or arrival pending, is the policy
		// starving the engine: a worker holding a popped task, or between
		// a completion and its pushes, is not parked, however often the
		// others re-probe (policies like dmdas queue per worker).
		parked struct {
			n   int
			gen uint64
		}
		// pushGen increments whenever new work may have become visible
		// to the schedulers (a push, or a fault reshuffling queues).
		// Workers snapshot it before releasing mu to Pop — schedulers
		// synchronize internally, Push already runs without mu — so the
		// engine lock no longer serializes every Pop. A worker whose
		// Pop came back empty only parks if the generation is unchanged,
		// closing the classic lost-wakeup window between its unlocked
		// Pop and its Wait.
		pushGen uint64
		// pushed/popped/done feed the engine progress counters; they
		// are only maintained while a probe is attached and, like the
		// scheduler state, are guarded by mu.
		pushed, popped, done int

		// Fault state (guarded by mu).
		dead           []bool
		liveWorkers    = len(e.machine.Units)
		pendingRetries int
		// pendingArrivals counts streaming tasks whose dependencies are
		// released but whose arrival timer has not fired yet (guarded by
		// mu); like pendingRetries it suppresses the starvation error.
		pendingArrivals int
		attempts        map[int64]int
		extraSpans      []trace.Span // failed and cancelled attempts
		fstats          FaultStats

		// Speculation/watchdog state (guarded by mu): the in-flight
		// attempts, and per task how many are in flight.
		runs         map[*taskRun]struct{}
		liveAttempts map[int64]int
	)
	dead = make([]bool, len(e.machine.Units))
	if plan != nil {
		attempts = make(map[int64]int)
	}
	if trackRuns {
		runs = make(map[*taskRun]struct{})
		liveAttempts = make(map[int64]int)
	}
	// noteProgress samples submitted/ready/running/completed. Callers
	// hold mu.
	noteProgress := func() {
		if probe == nil {
			return
		}
		at := now()
		probe.Counter("runtime.submitted", at, 0, float64(pushed))
		probe.Counter("runtime.ready", at, 0, float64(pushed-popped))
		probe.Counter("runtime.running", at, 0, float64(running))
		probe.Counter("runtime.completed", at, 0, float64(done))
	}
	workers := make([]WorkerInfo, len(e.machine.Units))
	for i, u := range e.machine.Units {
		workers[i] = WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
	}

	// The fault controller: one timer per kill event. Slowdowns need no
	// controller — the factor is computed from the plan windows at each
	// kernel start.
	var timers []*time.Timer // guarded by mu after the workers start
	if plan != nil {
		for _, ev := range plan.Kills() {
			ev := ev
			timers = append(timers, time.AfterFunc(time.Duration(ev.At*float64(time.Second)), func() {
				mu.Lock()
				if finished || failed != nil || dead[ev.Worker] {
					mu.Unlock()
					return
				}
				dead[ev.Worker] = true
				liveWorkers--
				fstats.Kills++
				fstats.AppliedKills = append(fstats.AppliedKills, AppliedKill{Unit: ev.Worker, At: now()})
				// Publishing the live view under mu serializes
				// concurrent kill timers' copy-on-write updates.
				env.MarkWorkerDown(ev.Worker)
				pushGen++ // WorkerDown may reshuffle queued tasks
				mu.Unlock()
				if fo, ok := e.sched.(FaultObserver); ok {
					fo.WorkerDown(workers[ev.Worker])
				}
				cond.Broadcast()
			}))
		}
	}

	// latePush offers t to the scheduler from outside a worker's
	// completion path — an arrival timer, a retry timer, the monitor's
	// relaunch — unless the run is over. The Push runs without mu
	// (schedulers synchronize internally). pending, when non-nil, is the
	// count that keeps the starvation detector quiet while t is in no
	// queue: it drops only once t is pushed. retry rolls t back first.
	// Callers must not hold mu.
	latePush := func(t *Task, retry bool, pending *int) {
		mu.Lock()
		if finished || failed != nil {
			mu.Unlock()
			return
		}
		mu.Unlock()
		if retry {
			t.ResetForRetry()
		}
		t.ReadyAt = now()
		e.sched.Push(t)
		mu.Lock()
		if pending != nil {
			*pending--
		}
		pushed++
		pushGen++
		noteProgress()
		mu.Unlock()
		cond.Broadcast()
	}

	// scheduleArrival parks a dependency-released task until its
	// wall-clock arrival instant, then pushes it through the normal
	// scheduler path. Callers must not hold mu.
	scheduleArrival := func(t *Task, at float64) {
		mu.Lock()
		pendingArrivals++
		timers = append(timers, time.AfterFunc(time.Duration((at-now())*float64(time.Second)), func() {
			latePush(t, false, &pendingArrivals)
		}))
		mu.Unlock()
	}

	for _, t := range g.Roots(nil) {
		if at := e.arrivalOf(t); at > 0 {
			scheduleArrival(t, at)
			continue
		}
		t.ReadyAt = 0
		e.sched.Push(t)
		pushed++
	}
	noteProgress()

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w WorkerInfo) {
			defer wg.Done()
			var ready []*Task // successors released by one completion; reused
			for {
				mu.Lock()
				var t *Task
				var ra *taskRun
				for {
					if remaining == 0 || failed != nil {
						mu.Unlock()
						cond.Broadcast()
						return
					}
					if dead[w.ID] {
						mu.Unlock()
						return
					}
					// Pop without holding the engine lock: at high
					// fan-out the schedulers' own sharded or per-worker
					// structures can serve concurrent pops, and holding
					// mu across Pop serialized all of them. The
					// generation snapshot detects pushes that landed
					// while mu was released.
					gen := pushGen
					mu.Unlock()
					t = e.sched.Pop(w)
					mu.Lock()
					if t != nil {
						popped++
						if ctl != nil && ctl.Done(t.ID) {
							// Stale speculative replica: another attempt
							// completed while this copy sat in the
							// scheduler's queue. Discard it unrun and
							// probe again.
							t = nil
							continue
						}
						break
					}
					if pushGen != gen {
						// Work arrived while the lock was released: the
						// empty pop is stale, probe again without parking.
						continue
					}
					if parked.gen != gen {
						// Whoever parked before the last push has been
						// woken and will probe again.
						parked.n, parked.gen = 0, gen
					}
					parked.n++
					if parked.n == liveWorkers && running == 0 && pendingRetries == 0 && pendingArrivals == 0 {
						failed = fmt.Errorf("%w (%d tasks left)", ErrStarved, remaining)
						mu.Unlock()
						cond.Broadcast()
						return
					}
					cond.Wait()
					if parked.gen == gen {
						parked.n--
					}
				}
				running++
				if trackRuns {
					ra = &taskRun{t: t, w: w, start: now()}
					if ctl != nil {
						ra.replica = liveAttempts[t.ID] > 0
						ra.expected = env.ExpectedDur(t, w)
					}
					runs[ra] = struct{}{}
					liveAttempts[t.ID]++
				}
				noteProgress()
				mu.Unlock()

				dur, slowed, startAt, endAt, panicked := e.execute(t, w, now, plan)

				mu.Lock()
				if ra != nil {
					delete(runs, ra)
					liveAttempts[t.ID]--
					if liveAttempts[t.ID] == 0 {
						delete(liveAttempts, t.ID)
					}
				}
				if slowed {
					fstats.Slowdowns++
				}
				if panicked != nil && failed == nil {
					// A panicking kernel fails the run, not the process.
					failed = fmt.Errorf("runtime: task %d (%s) panicked on worker %d: %v", t.ID, t.Kind, w.ID, panicked)
					cond.Broadcast()
				}
				if failed != nil {
					// The run already aborted (watchdog, starvation, retry
					// budget, kernel panic): discard the completion, it will
					// not be reported.
					mu.Unlock()
					return
				}
				if dead[w.ID] {
					// The worker was killed while the kernel ran: its
					// completion is discarded — no successor releases,
					// no progress — and the task rolls back for a
					// retry elsewhere (unless a speculative sibling
					// attempt is carrying it, or it already finished).
					running--
					extraSpans = append(extraSpans, trace.Span{
						Worker: w.ID, TaskID: t.ID, Kind: t.Kind,
						Start: startAt, End: endAt, Failed: true,
					})
					if ctl != nil && (ctl.Done(t.ID) || liveAttempts[t.ID] > 0) {
						// No retry needed: the task completed elsewhere or
						// a live sibling is still running it.
						noteProgress()
						mu.Unlock()
						cond.Broadcast()
						return
					}
					fstats.Retries++
					attempts[t.ID]++
					n := attempts[t.ID]
					if n > plan.RetryCap() {
						failed = fmt.Errorf("runtime: task %d exceeded %d retries", t.ID, plan.RetryCap())
						mu.Unlock()
						cond.Broadcast()
						return
					}
					if ctl != nil {
						ctl.Retired(t.ID) // restarting from scratch: budget returns
					}
					pendingRetries++
					noteProgress()
					delay := time.Duration(plan.RetryDelay(t.ID, n) * float64(time.Second))
					task := t
					timers = append(timers, time.AfterFunc(delay, func() {
						latePush(task, true, &pendingRetries)
					}))
					mu.Unlock()
					cond.Broadcast()
					return // the killed worker exits
				}
				if ctl != nil && !ctl.Effective(t.ID, ra.replica) {
					// First-success-wins: another attempt of this task
					// completed first. This one's completion is discarded
					// — no successor releases, no TaskDone — and its span
					// is recorded as cancelled. Its writes were to
					// task-private Go values; nothing published.
					running--
					extraSpans = append(extraSpans, trace.Span{
						Worker: w.ID, TaskID: t.ID, Kind: t.Kind,
						Start: startAt, End: endAt, Cancelled: true,
					})
					ctl.CancelAttempt(t.ID, endAt-startAt)
					noteProgress()
					mu.Unlock()
					cond.Broadcast()
					continue
				}
				// Effective completion: commit this attempt's stamps to
				// the shared task record (under mu — the monitor's
				// ResetForRetry writes the same fields).
				t.StartAt = startAt
				t.EndAt = endAt
				t.RanOn = w.ID
				running--
				remaining--
				done++
				if probe != nil {
					probe.Decision(obs.Decision{
						Kind: obs.TaskDone, At: endAt, Task: t.ID,
						Worker: int(w.ID), Mem: int(w.Mem), Arch: int(w.Arch),
						A: startAt, B: t.ReadyAt,
					})
				}
				mu.Unlock()

				if e.cfg.History != nil {
					d := dur
					sf := e.machine.Units[w.ID].SpeedFactor
					if sf > 0 {
						d /= sf
					}
					e.cfg.History.Record(t.Kind, w.Arch, t.Footprint, d)
				}
				// Release first, then read the clock once for all the
				// successors this completion made ready: every other
				// predecessor stamped its EndAt before its own ReleaseDep,
				// so the one reading is no earlier than any of them.
				ready = ready[:0]
				for _, id := range t.Succs() {
					if s := g.Tasks[id]; s.ReleaseDep() {
						ready = append(ready, s)
					}
				}
				released := 0
				if len(ready) > 0 {
					at := now()
					for _, s := range ready {
						if arrives := e.arrivalOf(s); arrives > at {
							// Dependencies done but the tenant has not
							// submitted the task yet: park it on a timer.
							scheduleArrival(s, arrives)
							continue
						}
						s.ReadyAt = at
						e.sched.Push(s)
						released++
					}
				}
				e.sched.TaskDone(t, w)
				mu.Lock()
				pushGen++
				pushed += released
				noteProgress()
				mu.Unlock()
				cond.Broadcast()
			}
		}(w)
	}

	// The speculation monitor: scan in-flight attempts at the policy
	// interval, flag stragglers, and push replicas through the normal
	// scheduler path.
	monitorDone := make(chan struct{})
	stopMonitor := make(chan struct{})
	if ctl != nil {
		go func() {
			defer close(monitorDone)
			tick := time.NewTicker(time.Duration(ctl.Policy().Interval() * float64(time.Second)))
			defer tick.Stop()
			for {
				select {
				case <-stopMonitor:
					return
				case <-tick.C:
				}
				var relaunch []*Task
				mu.Lock()
				if finished || failed != nil {
					mu.Unlock()
					return
				}
				at := now()
				for ra := range runs {
					if ctl.Done(ra.t.ID) || !ctl.Eligible(ra.expected) ||
						!ctl.Straggling(at-ra.start, ra.expected) {
						continue
					}
					if !ctl.TryFlag(ra.t.ID) {
						continue
					}
					// Reset under mu: the same fields are committed under
					// mu by the winning attempt.
					ra.t.ResetForRetry()
					relaunch = append(relaunch, ra.t)
				}
				mu.Unlock()
				for _, t := range relaunch {
					latePush(t, false, nil)
				}
			}
		}()
	} else {
		close(monitorDone)
	}

	// The watchdog: a wedged kernel cannot be preempted, so completion
	// is awaited on a channel and the watchdog path abandons the
	// workers instead of joining them.
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	wdFired := make(chan struct{})
	var wdTimer *time.Timer
	if e.cfg.Watchdog.Armed() {
		wdTimer = time.AfterFunc(e.cfg.Watchdog.Deadline, func() {
			mu.Lock()
			if finished || failed != nil {
				mu.Unlock()
				return
			}
			failed = fmt.Errorf("runtime: %w after %v (%d tasks left, %d running, scheduler %s)",
				ErrWatchdog, e.cfg.Watchdog.Deadline, remaining, running, e.sched.Name())
			e.dumpWatchdog(wdTail, now(), remaining, running, dead, runs)
			mu.Unlock()
			cond.Broadcast()
			close(wdFired)
		})
	}

	aborted := false
	select {
	case <-workersDone:
	case <-wdFired:
		// Workers stuck inside kernels never exit; abandon them. Their
		// completion paths see failed != nil and discard themselves.
		aborted = true
	}
	if ctl != nil && !aborted {
		close(stopMonitor)
		<-monitorDone
	}
	mu.Lock()
	finished = true
	stale := timers
	timers = nil
	err := failed
	mu.Unlock()
	for _, tm := range stale {
		tm.Stop()
	}
	if wdTimer != nil {
		wdTimer.Stop()
	}

	if err != nil {
		return nil, err
	}
	if remaining > 0 {
		return nil, fmt.Errorf("runtime: %d tasks unfinished with no live workers able to run them", remaining)
	}

	// Failed and cancelled attempts are appended after the successful
	// spans, ordered by (Start, TaskID) for a stable encoding.
	sort.Slice(extraSpans, func(i, j int) bool {
		if extraSpans[i].Start != extraSpans[j].Start {
			return extraSpans[i].Start < extraSpans[j].Start
		}
		return extraSpans[i].TaskID < extraSpans[j].TaskID
	})
	tr := TraceFromGraph(e.machine, g, extraSpans)
	return &Result{Makespan: tr.Makespan, Trace: tr, Faults: fstats}, nil
}

// arrivalOf returns t's submission time: 0 in batch mode.
func (e *ThreadedEngine) arrivalOf(t *Task) float64 {
	if e.cfg.Arrivals == nil {
		return 0
	}
	return e.cfg.Arrivals[t.ID]
}

// dumpWatchdog writes the wedged-run diagnostics. Caller holds mu.
func (e *ThreadedEngine) dumpWatchdog(tail *DecisionTail, at float64, remaining, running int, dead []bool, runs map[*taskRun]struct{}) {
	w := e.cfg.Watchdog.Output()
	fmt.Fprintf(w, "runtime watchdog: no completion after %v wall time\n", e.cfg.Watchdog.Deadline)
	fmt.Fprintf(w, "  t=%.3fs tasks-left=%d running=%d scheduler=%s\n", at, remaining, running, e.sched.Name())
	current := make(map[platform.UnitID]*taskRun)
	for ra := range runs {
		current[ra.w.ID] = ra
	}
	for i, u := range e.machine.Units {
		state := "idle"
		switch {
		case dead[i]:
			state = "dead"
		case current[platform.UnitID(i)] != nil:
			ra := current[platform.UnitID(i)]
			state = fmt.Sprintf("running task %d (%s) for %.3fs", ra.t.ID, ra.t.Kind, at-ra.start)
		}
		fmt.Fprintf(w, "  worker %-12s %s\n", u.Name, state)
	}
	tail.Dump(w)
}

// execute runs the kernel under the task's commute locks and returns
// the kernel duration (before any injected slowdown stretch), whether a
// slowdown window stretched it, and the attempt's private start/end
// stamps. The stamps stay off the shared Task fields because
// speculation runs concurrent attempts of one task; the effective
// attempt commits them under the run lock. A kernel that panics is
// recovered — the end stamp is still taken and the commute locks still
// release — and its panic value returned for the run to fail with.
func (e *ThreadedEngine) execute(t *Task, w WorkerInfo, now func() float64, plan *fault.Plan) (dur float64, slowed bool, startAt, endAt float64, panicked any) {
	unlock := t.LockCommute()
	startAt = now()
	if t.Run != nil {
		panicked = runKernel(t, w)
	}
	dur = now() - startAt
	if plan != nil {
		if f := plan.SlowFactorAt(w.ID, startAt); f > 1 {
			// A slowed worker takes (f-1)×dur longer; the stretch
			// happens inside the commute region like the kernel itself.
			time.Sleep(time.Duration((f - 1) * dur * float64(time.Second)))
			slowed = true
		}
	}
	// The end-of-execution record must close before the commute locks
	// release: the next commuting updater stamps its StartAt as soon as
	// it acquires the lock, and exclusivity is judged on these records.
	endAt = now()
	unlock()
	return dur, slowed, startAt, endAt, panicked
}

// runKernel runs t's kernel and returns the value it panicked with, nil
// when it returned normally.
func runKernel(t *Task, w WorkerInfo) (panicked any) {
	defer func() { panicked = recover() }()
	t.Run(w)
	return nil
}
