package sim

import (
	"fmt"

	"multiprio/internal/fault"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/trace"
)

// faultInjector holds the per-run fault state. It exists only when the
// run has a non-empty fault plan (or speculation enabled, which needs
// the same attempt tracking), so fault-free runs pay one nil check at
// each guarded site and allocate nothing.
type faultInjector struct {
	plan *fault.Plan
	// attempts counts execution attempts per task ID; a task whose
	// count exceeds the plan's retry cap fails the run.
	attempts map[int64]int
	// live tracks the in-flight attempts of each popped-but-unfinished
	// task, so a kill can abort exactly what its worker holds and a
	// speculation winner can cancel its losing siblings. Without
	// speculation the slice never exceeds one entry.
	live map[int64][]*attempt
	// attemptSeq numbers attempts in creation order; kills sort their
	// doomed set by it for a deterministic rollback sequence.
	attemptSeq int64
	stats      runtime.FaultStats
}

// attempt is the fault-tracking record of one execution attempt: which
// worker holds the task and which resources the staging pipeline has
// taken so far, so an abort releases exactly those.
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

func newFaultInjector(plan *fault.Plan) *faultInjector {
	return &faultInjector{
		plan:     plan,
		attempts: make(map[int64]int),
		live:     make(map[int64][]*attempt),
	}
}

// newAttempt registers a live attempt of t on wk.
func (fi *faultInjector) newAttempt(t *runtime.Task, wk *simWorker) *attempt {
	fi.attemptSeq++
	a := &attempt{t: t, wk: wk, n: fi.attemptSeq, replica: len(fi.live[t.ID]) > 0}
	fi.live[t.ID] = append(fi.live[t.ID], a)
	return a
}

// isLive reports whether a is still a registered attempt of its task.
func (fi *faultInjector) isLive(a *attempt) bool {
	for _, l := range fi.live[a.t.ID] {
		if l == a {
			return true
		}
	}
	return false
}

// removeLive unregisters a; the task's entry disappears with its last
// attempt.
func (fi *faultInjector) removeLive(a *attempt) {
	as := fi.live[a.t.ID]
	for i, l := range as {
		if l == a {
			as = append(as[:i], as[i+1:]...)
			break
		}
	}
	if len(as) == 0 {
		delete(fi.live, a.t.ID)
	} else {
		fi.live[a.t.ID] = as
	}
}

// liveOn counts live workers on memory node mem.
func (eng *simulation) liveOn(mem platform.MemID) int {
	n := 0
	for i := range eng.workers {
		if !eng.workers[i].dead && eng.workers[i].info.Mem == mem {
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
	wk := &eng.workers[u]
	if wk.dead {
		return
	}
	wk.dead = true
	fi := eng.faults
	fi.stats.Kills++
	fi.stats.AppliedKills = append(fi.stats.AppliedKills, runtime.AppliedKill{Unit: u, At: eng.now})
	eng.env.MarkWorkerDown(u)

	// Abort every attempt this worker holds — computing, staged,
	// acquiring, or parked on a commute lock — in attempt-creation order
	// for a deterministic rollback (and hence event) sequence.
	var doomed []*attempt
	for _, as := range fi.live {
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
		fi.stats.LostReplicas += eng.mm.loseNode(wk.info.Mem)
	}
	if fo, ok := eng.sched.(runtime.FaultObserver); ok {
		fo.WorkerDown(wk.info)
	}
	// Other workers may now be the best (or only) home for re-pushed
	// work; re-probe everyone.
	eng.wakeAll()
}

// abortAttempt rolls back one attempt: synthesize the failed span if
// the kernel was running, release pins, write-allocations and commute
// locks, and schedule the task's retry.
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
	eng.faults.removeLive(a)
	eng.rollbackTask(t)
}

// rollbackTask resets a killed attempt's task and re-pushes it to the
// scheduler after a capped exponential backoff with seed-derived jitter
// (fault.Plan.RetryDelay). The retry cap bounds pathological plans:
// exceeding it fails the run. When a speculative sibling of the task is
// still live the re-push is skipped: the surviving attempt carries the
// task, and only if it too dies does its own rollback re-push.
func (eng *simulation) rollbackTask(t *runtime.Task) {
	fi := eng.faults
	if len(fi.live[t.ID]) > 0 {
		return // a sibling attempt is still in flight
	}
	fi.stats.Retries++
	fi.attempts[t.ID]++
	n := fi.attempts[t.ID]
	if n > fi.plan.RetryCap() {
		if eng.runErr == nil {
			eng.runErr = fmt.Errorf("sim: task %d exceeded %d retries", t.ID, fi.plan.RetryCap())
		}
		return
	}
	if eng.specCtl != nil {
		// The task restarts from scratch; its replica budget comes back.
		eng.specCtl.Retired(t.ID)
	}
	t.ResetForRetry()
	eng.at(eng.now+fi.plan.RetryDelay(t.ID, n), func() { eng.pushArrived(t) })
}
