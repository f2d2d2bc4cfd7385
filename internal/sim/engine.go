package sim

import (
	"errors"
	"fmt"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/trace"
)

// Result reports one simulated run. It is the engine-agnostic
// runtime.Result: makespan, trace, per-worker statistics, and fault
// recovery counters.
type Result = runtime.Result

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
	// thunks holds the closures of pending evFunc events: arrivals,
	// retries, kills, straggler deadlines and a loser's freed slot.
	thunks slab[func()]
	// held is what each attempt in flight holds, indexed by its ID.
	held []held

	// Commute-mode mutual exclusion in virtual time: held by handle ID,
	// plus the attempts parked on a busy lock, and a spare waiter list
	// for unlockCommute to swap in. lockIDs and unlockIDs are the scratch
	// tryLockCommute and unlockCommute list a task's commute handles in;
	// two, because unlocking stages parked attempts, which lock.
	commuteHeld        []bool
	commuteWaiters     map[int64][]runtime.Attempt
	spareWaiters       []runtime.Attempt
	lockIDs, unlockIDs []int32
}

type simWorker struct {
	info        runtime.WorkerInfo
	unit        platform.Unit
	wakePending bool
	// inflight counts attempts popped and not yet finished (computing
	// plus lookahead slots acquiring data).
	inflight int
	// computing is the attempt whose kernel occupies the unit.
	computing runtime.Attempt
	// freeAt is when the unit last became free, for wait accounting.
	freeAt float64
	// staged queues attempts whose data is ready, waiting for the unit.
	staged []runtime.Attempt
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
	m, g := eng.machine, eng.graph
	// Presize the trace and the event queue from what the run will
	// certainly produce: one span per task, and a steady state of one
	// compute event per busy worker plus wake/transfer events. Span
	// append growth was the single largest allocation cost of
	// million-task runs.
	eng.tr.Reserve(len(g.Tasks))
	eng.pq.future = make([]event, 0, 8*len(m.Units)+64)
	eng.mm = newMemoryManager(eng, g)
	eng.commuteHeld = make([]bool, len(g.Handles))
	eng.commuteWaiters = make(map[int64][]runtime.Attempt)
	// A worker holds at most pipeline() attempts, so the attempts in
	// flight fit held and the staging queues carve one array.
	p := eng.pipeline()
	eng.held = make([]held, 1, 1+p*len(m.Units))
	staged := make([]runtime.Attempt, p*len(m.Units))
	eng.workers = make([]simWorker, len(m.Units))
	for i, u := range m.Units {
		eng.workers[i] = simWorker{
			info:   runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem},
			unit:   u,
			staged: staged[i*p : i*p : i*p+p],
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
	}
	eng.Start(eng, env, kill)
	for i := range eng.workers {
		eng.wake(platform.UnitID(i))
	}

	maxEvents := eng.cfg.MaxEvents
	if maxEvents <= 0 {
		maxEvents = 500_000_000
	}
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
			if eng.Overdue(eng.events) {
				eng.Abort()
			}
		}
	}
	// A queue drained with tasks left is the core's verdict, in End.
	if err := eng.Err(); err != nil {
		return nil, err
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

// schedule queues an event of the given kind at time t (>= now) and
// returns its seq. Events at the current instant — the wake/drain
// majority — take the queue's O(1) FIFO band.
func (eng *simulation) schedule(t float64, kind evKind, a int32) int64 {
	e := event{at: t, seq: eng.nextSeq(), a: a, kind: kind}
	if t <= eng.now {
		e.at = eng.now
		eng.pq.pushNow(e)
	} else {
		eng.pq.push(e)
	}
	return e.seq
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
		// A kernel rolled back before its end leaves its event behind.
		if eng.held[e.a].finishSeq == e.seq {
			eng.finishTask(runtime.Attempt(e.a))
		}
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
	return wk.computing != runtime.NoAttempt && wk.inflight < pipeline
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
	if !eng.Env.Claimed(t) {
		panic(fmt.Sprintf("sim: scheduler %s returned unclaimed task %d", eng.sched.Name(), t.ID))
	}
	a := eng.Popped(t, w)
	if a == runtime.NoAttempt {
		// A stale speculative replica, discarded unrun (the winner already
		// committed and released the successors): probe again for real work.
		eng.wake(w)
		return
	}
	if int(a) == len(eng.held) {
		eng.held = append(eng.held, held{})
	}
	eng.held[a] = held{wallocs: eng.held[a].wallocs[:0]}
	wk.inflight++
	eng.stageTask(a)
	if wk.canPop(eng.pipeline()) {
		eng.wake(w)
	}
}

// stageTask first takes the task's commute locks (a commuting update
// must read its predecessor's result, so the lock gates the data
// acquisition too), then acquires the data on the worker's memory node
// and queues the attempt for the unit.
func (eng *simulation) stageTask(a runtime.Attempt) {
	if !eng.tryLockCommute(a) {
		return // parked until the commute lock frees
	}
	h := &eng.held[a]
	h.stage, h.since = fetching, eng.now
	if h.join = eng.mm.acquire(a, eng.workers[eng.Worker(a)].info.Mem); h.join < 0 {
		eng.taskStaged(a) // everything was resident
	}
}

// taskStaged queues an attempt whose data is in place on its worker's
// memory node: the continuation of every acquire, immediate or joined.
func (eng *simulation) taskStaged(a runtime.Attempt) {
	eng.held[a].stage = ready
	wk := &eng.workers[eng.Worker(a)]
	wk.staged = append(wk.staged, a)
	eng.maybeCompute(wk)
}

// maybeCompute starts the next staged attempt when the unit is free.
func (eng *simulation) maybeCompute(wk *simWorker) {
	if eng.Dead(wk.info.ID) || wk.computing != runtime.NoAttempt || len(wk.staged) == 0 {
		return
	}
	// Dequeue by copying down, not by re-slicing from the front: the
	// queue keeps its slot of the shared array, at most pipeline() long.
	a := wk.staged[0]
	wk.staged = wk.staged[:copy(wk.staged, wk.staged[1:])]
	t, h := eng.Task(a), &eng.held[a]
	wk.computing, h.stage = a, running
	// Wait is the stretch the unit actually sat blocked on this task's
	// transfers: from when it was both free and the task was staging.
	h.startAt = max(h.since, wk.freeAt)
	h.wait = eng.now - h.startAt
	h.startSeq = eng.nextSeq() // linearization point of the kernel start
	base, ok := t.BaseCost(wk.info.Arch)
	if !ok {
		panic(fmt.Sprintf("sim: task %d (%s) scheduled on arch without implementation", t.ID, t.Kind()))
	}
	h.dur = base * wk.unit.SpeedFactor
	if f := eng.Plan.SlowFactorAt(wk.info.ID, eng.now); f > 1 {
		h.dur *= f
		eng.Faults.Slowdowns++
	}
	h.finishSeq = eng.schedule(eng.now+h.dur, evFinish, int32(a))
	// Straggler detection: the simulator knows the kernel duration at
	// start, so only an attempt that will actually overrun slack ×
	// expected gets a deadline event — observationally identical to
	// continuous monitoring, and seq-neutral for runs where nothing
	// straggles (the byte-identity property).
	eng.Watch(a, h.dur)
	// A kernel is now running: the lookahead slot may fill.
	eng.wake(wk.info.ID)
}

// tryLockCommute acquires every commute lock of a's task, or parks a on
// the first busy lock.
func (eng *simulation) tryLockCommute(a runtime.Attempt) bool {
	hs := eng.Task(a).CommuteHandles(eng.lockIDs[:0])
	eng.lockIDs = hs
	for i, h := range hs {
		if eng.commuteHeld[h] {
			for _, got := range hs[:i] {
				eng.commuteHeld[got] = false
			}
			eng.commuteWaiters[int64(h)] = append(eng.commuteWaiters[int64(h)], a)
			eng.held[a].stage, eng.held[a].parkedOn = parked, int64(h)
			return false
		}
		eng.commuteHeld[h] = true
	}
	return true
}

// unlockCommute releases t's commute locks and retries parked stages.
func (eng *simulation) unlockCommute(t *runtime.Task) {
	hs := t.CommuteHandles(eng.unlockIDs[:0])
	eng.unlockIDs = hs
	for _, h := range hs {
		eng.commuteHeld[h] = false
		ws := eng.commuteWaiters[int64(h)]
		if len(ws) == 0 {
			continue
		}
		// A staged waiter that finds a lock taken parks again, into the
		// spare list that takes ws's place; ws becomes the spare once read.
		eng.commuteWaiters[int64(h)] = eng.spareWaiters[:0]
		for _, a := range ws {
			eng.stageTask(a)
		}
		eng.spareWaiters = ws
	}
}

// finishTask completes attempt a at the end of its kernel.
func (eng *simulation) finishTask(a runtime.Attempt) {
	// First-success-wins: roll the losing siblings back before any
	// completion effect publishes — a loser's write allocations are
	// rolled back while the winner still pins the shared replicas (so
	// nothing the winner needs is freed).
	for l := eng.Sibling(a); l != runtime.NoAttempt; l = eng.Sibling(a) {
		eng.rollback(l, false)
	}
	// A copy: the slot is free for the next attempt once Commit ends a.
	t, h := eng.Task(a), eng.held[a]
	wk := &eng.workers[eng.Worker(a)]
	// With its siblings gone this attempt is the first to finish: it
	// commits its execution stamps to the run's state.
	eng.Commit(a, h.startAt, eng.now)
	endSeq := eng.nextSeq() // kernel completion precedes its write effects
	// Write effects must land before the commute locks release: a
	// parked successor retries synchronously inside unlockCommute and
	// must see the post-write replica state.
	eng.mm.release(t, wk.info.Mem)
	eng.unlockCommute(t)
	eng.tr.AddSpan(trace.Span{
		Worker:   wk.info.ID,
		TaskID:   t.ID,
		Kind:     t.Kind(),
		Start:    h.startAt,
		End:      eng.now,
		Wait:     h.wait,
		StartSeq: h.startSeq,
		EndSeq:   endSeq,
	})
	eng.Complete(t, wk.info, eng.Release(t, wk.info, h.dur))
	wk.computing = runtime.NoAttempt
	wk.freeAt = eng.now
	wk.inflight--
	eng.maybeCompute(wk)
	eng.wakeAll()
}
