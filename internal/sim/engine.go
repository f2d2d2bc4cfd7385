package sim

import (
	"errors"
	"fmt"
	"time"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/trace"
)

// Result reports one simulated run. It is the engine-agnostic
// runtime.Result: makespan, trace, per-worker statistics, and fault
// recovery counters.
type Result = runtime.Result

// ErrDeadlock is returned when the event queue drains with unfinished
// tasks: every worker idle, nothing in flight, and the scheduler refuses
// to hand out the remaining tasks. It is the simulator's form of
// runtime.ErrStarved and wraps it.
var ErrDeadlock = fmt.Errorf("sim: deadlock - no events pending but tasks remain: %w", runtime.ErrStarved)

// Engine is a configured simulator for one machine and scheduler,
// implementing runtime.Engine. Each Run spins up a fresh simulation.
//
// Everything a run injects is a discrete event — kills, arrival
// releases, retries, straggler checks — so it linearizes with the rest
// of the simulation: same graph + same configuration ⇒ byte-identical
// canonical trace, and an all-zero arrival plan is byte-identical to
// batch mode.
type Engine struct {
	machine *platform.Machine
	sched   runtime.Scheduler
	cfg     runtime.RunConfig
}

// NewEngine builds a simulator engine for machine m driving scheduler
// s. It returns an error — symmetric with runtime.NewThreadedEngine —
// when either is nil.
func NewEngine(m *platform.Machine, s runtime.Scheduler, opts ...runtime.Option) (*Engine, error) {
	if m == nil {
		return nil, errors.New("sim: NewEngine: nil machine")
	}
	if s == nil {
		return nil, errors.New("sim: NewEngine: nil scheduler")
	}
	return &Engine{machine: m, sched: s, cfg: runtime.BuildRunConfig(opts)}, nil
}

// Run simulates the execution of g on m under scheduler s: NewEngine
// plus Engine.Run, for callers with one graph to run.
func Run(m *platform.Machine, g *runtime.Graph, s runtime.Scheduler, opts ...runtime.Option) (*Result, error) {
	e, err := NewEngine(m, s, opts...)
	if err != nil {
		return nil, err
	}
	return e.Run(g)
}

// Run implements runtime.Engine.
func (e *Engine) Run(g *runtime.Graph) (*Result, error) {
	_, res, err := e.simulate(g)
	return res, err
}

// simulate runs g on the run core and returns the finished simulation
// beside the Result, so in-package tests can inspect the memory
// manager's final state.
func (e *Engine) simulate(g *runtime.Graph) (*simulation, *Result, error) {
	// Without an Estimator schedulers see the perfectly calibrated
	// offline model, as StarPU assumes after calibration runs.
	fr, err := e.cfg.Begin("sim", e.machine, g, e.sched, perfmodel.Oracle{})
	if err != nil {
		return nil, nil, err
	}
	eng := &simulation{
		RunFrame: fr,
		machine:  e.machine,
		graph:    g,
		sched:    e.sched,
		cfg:      e.cfg,
		wdStart:  time.Now(),
		tr:       trace.New(e.machine),
	}
	res, err := eng.End(eng.run())
	return eng, res, err
}

// simulation is one in-flight simulated run: the run core (the embedded
// RunFrame, whose Clock it is) plus what is the simulator's own — the
// event loop, the staging pipeline, commute parking, the memory manager,
// and what each attempt holds.
type simulation struct {
	runtime.RunFrame
	machine *platform.Machine
	graph   *runtime.Graph
	sched   runtime.Scheduler
	cfg     runtime.RunConfig

	now          float64
	seq          int64
	pq           eventQueue
	mm           *memoryManager
	tr           *trace.Trace
	workers      []simWorker
	events       int64
	drainPending bool
	// batch is the reused same-timestamp event buffer of the main loop.
	batch []event
	// thunks holds the closures of pending evFunc events. Only fault,
	// speculation and streaming runs schedule any: their events capture
	// cancellable attempt state, and stay off the fault-free path.
	thunks slab[func()]

	// live tracks what the in-flight attempts of each popped-but-unfinished
	// task hold, so a kill can abort exactly what its worker has and a
	// speculation winner can cancel its losing siblings. Nil on fault-free
	// runs (Plan == nil), which track no attempts; without speculation a
	// slice never exceeds one entry.
	live map[int64][]*attempt
	// attemptSeq numbers attempts in creation order; kills sort their
	// doomed set by it for a deterministic rollback sequence.
	attemptSeq int64
	wdStart    time.Time

	// Commute-mode mutual exclusion in virtual time: held by handle ID,
	// plus retry continuations parked on a busy lock.
	commuteHeld    []bool
	commuteWaiters map[int64][]func()
}

type simWorker struct {
	info        runtime.WorkerInfo
	unit        platform.Unit
	wakePending bool
	// inflight counts tasks popped and not yet finished (computing
	// plus lookahead slots acquiring data).
	inflight int
	// computing is non-nil while a kernel occupies the unit.
	computing *runtime.Task
	// freeAt is when the unit last became free, for wait accounting.
	freeAt float64
	// staged queues tasks whose data is ready, waiting for the unit.
	staged []stagedTask
	// fin holds the arguments of the in-flight evFinish event — valid on
	// fault-free runs only, where at most one kernel (and so one finish
	// event) per worker is outstanding and nothing can cancel it. Fault
	// runs keep a per-kernel closure: attempts are cancellable and the
	// captured runState is the cancellation guard.
	fin finishArgs
}

// finishArgs carries one kernel completion from maybeCompute to
// finishTask through the worker's reusable finish slot.
type finishArgs struct {
	t            *runtime.Task
	blockedSince float64
	wait         float64
	dur          float64
	startSeq     int64
}

type stagedTask struct {
	t     *runtime.Task
	popAt float64
	// a is the fault-tracking attempt record (nil on fault-free runs);
	// it binds the staged entry to the exact attempt so concurrent
	// speculation attempts of one task never share kernel bookkeeping.
	a *attempt
}

// run executes the simulation and returns the Result's measured fields
// (makespan, trace, overflow and event counters) or the error that
// aborted it. A panicking scheduler call, wherever in the run the
// engine or the core made it, is that error.
func (eng *simulation) run() (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, eng.Panicked(v)
		}
	}()
	m, g, s := eng.machine, eng.graph, eng.sched
	// Presize the trace and the event queue from what the run will
	// certainly produce: one span per task, and a steady state of one
	// compute event per busy worker plus wake/transfer events. Span
	// append growth was the single largest allocation cost of
	// million-task runs.
	eng.tr.Reserve(len(g.Tasks))
	eng.pq.near = make([]event, 0, 8*len(m.Units)+64)
	eng.mm = newMemoryManager(eng, g)
	eng.commuteHeld = make([]bool, len(g.Handles))
	eng.commuteWaiters = make(map[int64][]func())
	eng.workers = make([]simWorker, len(m.Units))
	for i, u := range m.Units {
		eng.workers[i] = simWorker{
			info: runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem},
			unit: u,
		}
	}

	env := runtime.NewEnv(m, g)
	env.Locator = eng.mm
	env.Now = eng.Now
	env.Prefetch = func(t *runtime.Task, mem platform.MemID) {
		eng.mm.prefetch(t, mem)
	}
	if eng.Probe != nil {
		// Read-only view of the linearization sequencer: probes stamp
		// events with the last-assigned seq and never advance it. Only
		// installed (one closure allocation) when a probe consumes it.
		env.Seq = func() int64 { return eng.seq }
	}
	var kill func(platform.UnitID)
	if eng.Plan != nil {
		// Kill events enter the queue up front; window faults (slowdowns,
		// transfer failures) apply by time lookup. Binding the method is
		// an allocation, so fault-free runs pass nil.
		kill = eng.applyKill
		eng.live = make(map[int64][]*attempt)
	}
	eng.Start(eng, env, kill)
	for i := range eng.workers {
		eng.wake(platform.UnitID(i))
	}

	maxEvents := eng.cfg.MaxEvents
	if maxEvents <= 0 {
		maxEvents = 500_000_000
	}

	// wdMask throttles the watchdog's wall-clock reads to one per 256
	// events; virtual time is free, syscalls are not.
	const wdMask = 255
	wd := eng.cfg.Watchdog
	for eng.pq.len() > 0 && !eng.Over() {
		// Same-timestamp events process as one batch: the timestamp
		// advances once, then the handlers run in seq order. Every
		// per-event abort condition of the seed loop (completion, run
		// error, event budget, watchdog) still applies between handlers,
		// leaving the rest of the batch unprocessed exactly as the seed
		// left it queued.
		eng.batch = eng.pq.popBatch(eng.batch[:0])
		if eng.batch[0].at < eng.now {
			return nil, fmt.Errorf("sim: time went backwards (%g < %g)", eng.batch[0].at, eng.now)
		}
		eng.now = eng.batch[0].at
		for i := range eng.batch {
			if eng.Over() {
				break
			}
			eng.dispatch(eng.batch[i])
			eng.events++
			if eng.events > maxEvents {
				return nil, fmt.Errorf("sim: exceeded %d events at t=%g with %d tasks left", maxEvents, eng.now, eng.Remaining())
			}
			if wd.Armed() && eng.events&wdMask == 0 &&
				time.Since(eng.wdStart) > wd.Deadline {
				eng.dumpWatchdog(wd)
				return nil, fmt.Errorf("sim: %w after %v (%d events, %d tasks left, t=%g, scheduler %s)",
					runtime.ErrWatchdog, wd.Deadline, eng.events, eng.Remaining(), eng.now, s.Name())
			}
		}
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	if eng.Remaining() > 0 {
		return nil, fmt.Errorf("%w (%d of %d tasks unfinished at t=%g, scheduler %s)",
			ErrDeadlock, eng.Remaining(), len(g.Tasks), eng.now, s.Name())
	}
	eng.tr.Xfers, eng.tr.MemEvents = eng.mm.xferLog.Fold(), eng.mm.eventLog.Fold()
	return &Result{
		Makespan:      eng.tr.Makespan,
		Trace:         eng.tr,
		OverflowBytes: eng.mm.overflow,
		Events:        eng.events,
	}, nil
}

// Now implements runtime.Clock: the virtual time of the event being
// handled.
func (eng *simulation) Now() float64 { return eng.now }

// schedule queues an event of the given kind at time t (>= now). Events
// at the current instant — the wake/drain majority — take the queue's
// O(1) FIFO band.
func (eng *simulation) schedule(t float64, kind evKind, a int32) {
	e := event{at: t, seq: eng.nextSeq(), a: a, kind: kind}
	if t <= eng.now {
		e.at = eng.now
		eng.pq.pushNow(e)
		return
	}
	eng.pq.push(e)
}

// At implements runtime.Clock: the closure fn becomes a discrete event
// at time t, through a thunk slot. Only fault, speculation and streaming
// runs schedule any.
func (eng *simulation) At(t float64, fn func()) {
	eng.schedule(t, evFunc, eng.thunks.alloc(fn))
}

// dispatch runs the handler of one due event.
func (eng *simulation) dispatch(e event) {
	switch e.kind {
	case evWake:
		eng.workers[e.a].wakePending = false
		eng.tryPop(platform.UnitID(e.a))
	case evDrain:
		eng.drainPending = false
		eng.drain()
	case evFinish:
		wk := &eng.workers[e.a]
		f := wk.fin
		eng.finishTask(f.t, wk, nil, f.blockedSince, f.wait, f.dur, f.startSeq)
	case evXferDone:
		eng.mm.transferDone(e.a)
	case evFunc:
		fn := eng.thunks.recs[e.a]
		eng.thunks.release(e.a)
		ready := eng.Ready()
		fn()
		if eng.Ready() > ready {
			// The callback offered the policy a task — an arrival, a retry,
			// a replica: the machine may have gone fully idle waiting for it.
			eng.wakeAll()
		}
	}
}

func (eng *simulation) nextSeq() int64 {
	eng.seq++
	return eng.seq
}

// pipeline returns the per-worker task pipeline depth.
func (eng *simulation) pipeline() int {
	if eng.cfg.Pipeline > 0 {
		return eng.cfg.Pipeline
	}
	return 2
}

// wake schedules a pop attempt for worker w unless one is pending.
func (eng *simulation) wake(w platform.UnitID) {
	wk := &eng.workers[w]
	if eng.Dead(w) || !wk.canPop(eng.pipeline()) || wk.wakePending {
		return
	}
	wk.wakePending = true
	eng.schedule(eng.now, evWake, int32(w))
}

// wakeAll wakes every worker with free pipeline slots. A single
// coalesced drain event per batch of completions keeps the event count
// linear in tasks rather than tasks × workers.
func (eng *simulation) wakeAll() {
	if eng.drainPending {
		return
	}
	eng.drainPending = true
	eng.schedule(eng.now, evDrain, 0)
}

// drain offers a pop to every worker with a free pipeline slot and no
// wake of its own pending, in worker order. The walk ends once nothing
// pushed is un-popped: tryPop pushes nothing, so no later worker of this
// drain could be served — most drains of a run end before worker 0.
func (eng *simulation) drain() {
	for i := 0; i < len(eng.workers) && eng.Ready() != 0; i++ {
		wk := &eng.workers[i]
		if !eng.Dead(platform.UnitID(i)) && wk.canPop(eng.pipeline()) && !wk.wakePending {
			eng.tryPop(platform.UnitID(i))
		}
	}
}

// canPop reports whether worker w may take another task: its first task
// when idle, or a lookahead task while a kernel is running. Lookahead
// pops are deliberately one-at-a-time through queued wake events so
// that same-instant pops of other idle workers interleave fairly.
func (wk *simWorker) canPop(pipeline int) bool {
	if wk.inflight == 0 {
		return true
	}
	return wk.computing != nil && wk.inflight < pipeline
}

// tryPop takes at most one task for worker w and starts acquiring its
// data immediately, overlapping the current compute as StarPU workers
// with lookahead do.
func (eng *simulation) tryPop(w platform.UnitID) {
	wk := &eng.workers[w]
	if eng.Dead(w) || !wk.canPop(eng.pipeline()) {
		return
	}
	if eng.Ready() == 0 {
		// Nothing the engine pushed is still un-popped, so no policy has
		// a task to give (Scheduler contract: such a Pop is a no-op).
		// Most wake-ups of a run find this.
		return
	}
	t := eng.sched.Pop(wk.info)
	if t == nil {
		return
	}
	if !t.Claimed() {
		panic(fmt.Sprintf("sim: scheduler %s returned unclaimed task %d", eng.sched.Name(), t.ID))
	}
	replica, ok := eng.Popped(t)
	if !ok {
		// A stale speculative replica, discarded unrun (the winner already
		// committed and released the successors): probe again for real work.
		eng.wake(w)
		return
	}
	wk.inflight++
	var a *attempt
	if eng.Plan != nil {
		a = eng.newAttempt(t, wk, replica)
	}
	eng.stageTask(t, wk, a)
	if wk.canPop(eng.pipeline()) {
		eng.wake(w)
	}
}

// stageTask first takes the task's commute locks (a commuting update
// must read its predecessor's result, so the lock gates the data
// acquisition too), then acquires the data on the worker's memory node
// and queues the task for the unit. a is the fault-tracking attempt
// record (nil on fault-free runs).
func (eng *simulation) stageTask(t *runtime.Task, wk *simWorker, a *attempt) {
	if a != nil && (a.cancelled || a.ended) {
		// The attempt was aborted while parked on a commute lock (its
		// worker died, or a speculation sibling won); the rollback
		// already happened.
		return
	}
	if !eng.tryLockCommute(t, wk, a) {
		return // parked until the commute lock frees
	}
	st := stagedTask{t: t, popAt: eng.now, a: a}
	if a == nil {
		// Fault-free runs have exactly one attempt; stamp the placement
		// immediately. Attempt-tracked runs defer the commit to the
		// winning attempt's finishTask, because concurrent speculation
		// attempts must not race on the shared task fields.
		t.RanOn = wk.info.ID
	}
	if a != nil {
		a.locked = true
		eng.mm.wallocDst = &a.wallocs
	}
	if eng.mm.acquire(st, wk) {
		eng.taskStaged(wk, st) // everything was resident
	}
	if a != nil {
		a.pinned = true
	}
}

// taskStaged queues a task whose data is in place on wk's memory node:
// the continuation of every acquire, immediate or joined.
func (eng *simulation) taskStaged(wk *simWorker, st stagedTask) {
	if st.a != nil && st.a.cancelled {
		return // aborted while transfers were in flight
	}
	wk.staged = append(wk.staged, st)
	eng.maybeCompute(wk)
}

// maybeCompute starts the next staged task when the unit is free.
func (eng *simulation) maybeCompute(wk *simWorker) {
	if eng.Dead(wk.info.ID) || wk.computing != nil || len(wk.staged) == 0 {
		return
	}
	// Dequeue by copying down, not by re-slicing from the front: that
	// would shed one slot of capacity per task and make every stageTask
	// append reallocate. The queue is at most pipeline() entries long.
	st := wk.staged[0]
	n := copy(wk.staged, wk.staged[1:])
	wk.staged[n] = stagedTask{}
	wk.staged = wk.staged[:n]
	t := st.t
	wk.computing = t
	// Wait is the stretch the unit actually sat blocked on this task's
	// transfers: from when it was both free and the task was popped.
	blockedSince := st.popAt
	if wk.freeAt > blockedSince {
		blockedSince = wk.freeAt
	}
	wait := eng.now - blockedSince
	if st.a == nil {
		t.StartAt = blockedSince
	}
	startSeq := eng.nextSeq() // linearization point of the kernel start
	base, ok := t.BaseCost(wk.info.Arch)
	if !ok {
		panic(fmt.Sprintf("sim: task %d (%s) scheduled on arch without implementation", t.ID, t.Kind))
	}
	dur := base * wk.unit.SpeedFactor
	var run *runState
	if eng.Plan != nil {
		if f := eng.Plan.SlowFactorAt(wk.info.ID, eng.now); f > 1 {
			dur *= f
			eng.Faults.Slowdowns++
		}
		run = &runState{startAt: blockedSince, wait: wait, startSeq: startSeq}
		if st.a != nil {
			st.a.run = run
		}
	}
	if eng.Plan == nil {
		// Fault-free: reuse the worker's finish slot instead of closing
		// over the six arguments per kernel. The slot is free here —
		// wk.computing gates maybeCompute until the previous finish
		// event has fired and finishTask cleared it.
		wk.fin = finishArgs{t: t, blockedSince: blockedSince, wait: wait, dur: dur, startSeq: startSeq}
		eng.schedule(eng.now+dur, evFinish, int32(wk.info.ID))
	} else {
		eng.At(eng.now+dur, func() {
			if run != nil && run.cancelled {
				return // killed mid-kernel or lost to a speculation sibling
			}
			eng.finishTask(t, wk, st.a, blockedSince, wait, dur, startSeq)
		})
	}
	if eng.Spec != nil && st.a != nil {
		// Straggler detection: the simulator knows the kernel duration at
		// start, so only an attempt that will actually overrun slack ×
		// expected gets a deadline event — observationally identical to
		// continuous monitoring, and seq-neutral for runs where nothing
		// straggles (the byte-identity property).
		eng.Watch(t, wk.info, dur, st.a.running)
	}
	// A kernel is now running: the lookahead slot may fill.
	eng.wake(wk.info.ID)
}

// tryLockCommute acquires every commute lock of t, or parks a staging
// retry on the first busy lock. The retry continuation is built only at
// the park site: most stage attempts either have no commute handles or
// take the locks immediately, and allocating a closure for them showed
// up on million-task runs.
func (eng *simulation) tryLockCommute(t *runtime.Task, wk *simWorker, a *attempt) bool {
	hs := t.CommuteHandles(nil)
	for i, h := range hs {
		if eng.commuteHeld[h.ID] {
			for _, got := range hs[:i] {
				eng.commuteHeld[got.ID] = false
			}
			eng.commuteWaiters[h.ID] = append(eng.commuteWaiters[h.ID],
				func() { eng.stageTask(t, wk, a) })
			return false
		}
		eng.commuteHeld[h.ID] = true
	}
	return true
}

// unlockCommute releases t's commute locks and retries parked stages.
func (eng *simulation) unlockCommute(t *runtime.Task) {
	for _, h := range t.CommuteHandles(nil) {
		eng.commuteHeld[h.ID] = false
		ws := eng.commuteWaiters[h.ID]
		if len(ws) == 0 {
			continue
		}
		delete(eng.commuteWaiters, h.ID)
		for _, retry := range ws {
			retry()
		}
	}
}

func (eng *simulation) finishTask(t *runtime.Task, wk *simWorker, a *attempt, startAt, wait, dur float64, startSeq int64) {
	if eng.Spec != nil && a != nil {
		// First-success-wins: cancel the losing siblings before any
		// completion effect publishes. Parked commute retries of a loser
		// then no-op on their cancelled flag, and a loser's write
		// allocations are rolled back while the winner still pins the
		// shared replicas (so nothing the winner needs is freed).
		eng.cancelSiblings(a)
	}
	// With its siblings cancelled this attempt is the first to finish: it
	// commits its execution stamps to the task.
	eng.Commit(t, wk.info, a != nil && a.replica, startAt, eng.now)
	endSeq := eng.nextSeq() // kernel completion precedes its write effects
	// Write effects must land before the commute locks release: a
	// parked successor retries synchronously inside unlockCommute and
	// must see the post-write replica state.
	eng.mm.release(t, wk.info.Mem)
	eng.unlockCommute(t)
	eng.tr.AddSpan(trace.Span{
		Worker:   wk.info.ID,
		TaskID:   t.ID,
		Kind:     t.Kind,
		Start:    startAt,
		End:      t.EndAt,
		Wait:     wait,
		StartSeq: startSeq,
		EndSeq:   endSeq,
	})
	if a != nil {
		eng.removeLive(a)
	}
	eng.Complete(t, wk.info, eng.Release(t, wk.info, dur))
	wk.computing = nil
	wk.freeAt = eng.now
	wk.inflight--
	eng.maybeCompute(wk)
	eng.wakeAll()
}
