package sim

import (
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/trace"
)

// attempt is the fault-tracking record of one execution attempt: which
// worker holds the task and which resources the staging pipeline has
// taken so far, so an abort releases exactly those. Whether a task's
// abandoned attempt is retried, and when, is the run core's decision;
// the records exist only under a fault plan (or speculation, which
// rides on one), so fault-free runs pay one nil check at each guarded
// site and allocate nothing.
type attempt struct {
	t  *runtime.Task
	wk *simWorker
	// n is the attempt's creation-order number (determinism key).
	n int64
	// replica marks a speculative replica: another attempt of the task
	// was already live when this one was popped.
	replica bool
	// pinned: mm.acquire was called — pins are held on wk's memory
	// node (from the moment acquire returns, transfers may still be in
	// flight).
	pinned bool
	// locked: the task's commute locks are held.
	locked bool
	// wallocs are the handles acquire write-allocated; see abortAcquire.
	wallocs []*runtime.DataHandle
	// run is non-nil while the kernel occupies the unit.
	run *runState
	// cancelled flags the attempt dead so late callbacks (acquire
	// completions, parked commute retries) become no-ops.
	cancelled bool
	// ended: the attempt left the live set — cancelled, aborted or done.
	ended bool
}

// running reports whether the attempt's kernel still occupies its unit:
// what a straggler deadline asks before it replicates the task.
func (a *attempt) running() bool {
	return !a.ended && a.run != nil && !a.run.cancelled
}

// runState carries the kernel-start bookkeeping of one attempt so a
// kill or speculation loss can synthesize the failed/cancelled span and
// cancel the completion event. startAt is per-attempt (not the shared
// Task.StartAt) because two speculation attempts of one task run
// concurrently; the winner commits its stamps to the task in
// finishTask.
type runState struct {
	startAt   float64
	wait      float64
	startSeq  int64
	cancelled bool
}

// newAttempt registers a live attempt of t on wk.
func (eng *simulation) newAttempt(t *runtime.Task, wk *simWorker, replica bool) *attempt {
	eng.attemptSeq++
	a := &attempt{t: t, wk: wk, n: eng.attemptSeq, replica: replica}
	eng.live[t.ID] = append(eng.live[t.ID], a)
	return a
}

// removeLive unregisters a; the task's entry disappears with its last
// attempt.
func (eng *simulation) removeLive(a *attempt) {
	a.ended = true
	as := eng.live[a.t.ID]
	for i, l := range as {
		if l == a {
			as = append(as[:i], as[i+1:]...)
			break
		}
	}
	if len(as) == 0 {
		delete(eng.live, a.t.ID)
	} else {
		eng.live[a.t.ID] = as
	}
}

// liveOn counts live workers on memory node mem.
func (eng *simulation) liveOn(mem platform.MemID) int {
	n := 0
	for i := range eng.workers {
		if !eng.Dead(platform.UnitID(i)) && eng.workers[i].info.Mem == mem {
			n++
		}
	}
	return n
}

// applyKill removes worker u from the machine at the current simulated
// time: every attempt the worker holds is aborted and rolled back, the
// scheduler's view of the machine shrinks, and — when the worker was
// the last one of its memory node — the node's replicas are lost.
func (eng *simulation) applyKill(u platform.UnitID) {
	if !eng.KillWorker(u) {
		return
	}
	wk := &eng.workers[u]

	// Abort every attempt this worker holds — computing, staged,
	// acquiring, or parked on a commute lock — in attempt-creation order
	// for a deterministic rollback (and hence event) sequence.
	var doomed []*attempt
	for _, as := range eng.live {
		for _, a := range as {
			if a.wk == wk {
				doomed = append(doomed, a)
			}
		}
	}
	for i := 1; i < len(doomed); i++ { // insertion sort: a handful of entries
		for j := i; j > 0 && doomed[j-1].n > doomed[j].n; j-- {
			doomed[j-1], doomed[j] = doomed[j], doomed[j-1]
		}
	}
	for _, a := range doomed {
		eng.abortAttempt(a)
	}
	wk.staged = nil
	wk.computing = nil

	// Device loss: the node's memory dies with its last worker.
	if eng.liveOn(wk.info.Mem) == 0 {
		eng.Faults.LostReplicas += eng.mm.loseNode(wk.info.Mem)
	}
	eng.WorkerDown(u)
	// Other workers may now be the best (or only) home for re-pushed
	// work; re-probe everyone.
	eng.wakeAll()
}

// abortAttempt rolls back one attempt: synthesize the failed span if
// the kernel was running, release pins, write-allocations and commute
// locks, and hand the task back to the core, which retries it after the
// plan's backoff unless a speculative sibling still carries it.
func (eng *simulation) abortAttempt(a *attempt) {
	t := a.t
	wk := a.wk
	a.cancelled = true
	if a.run != nil {
		a.run.cancelled = true // the queued finish event becomes a no-op
		endSeq := eng.nextSeq()
		eng.tr.AddSpan(trace.Span{
			Worker: wk.info.ID, TaskID: t.ID, Kind: t.Kind,
			Start: a.run.startAt, End: eng.now, Wait: a.run.wait,
			StartSeq: a.run.startSeq, EndSeq: endSeq, Failed: true,
		})
	}
	if a.pinned {
		eng.mm.abortAcquire(t, wk.info.Mem, a.wallocs)
	}
	if a.locked {
		eng.unlockCommute(t)
	}
	wk.inflight--
	eng.removeLive(a)
	eng.Abandon(t)
}
