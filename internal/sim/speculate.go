package sim

import "multiprio/internal/trace"

// Speculative straggler mitigation (internal/spec wiring): the run core
// arms the deadlines and launches the replicas (RunFrame.Watch); what is
// the simulator's own is how a loser is interrupted.

// cancelSiblings cancels every live attempt of the winner's task except
// the winner itself, in attempt-creation order. Called by finishTask
// before the winner's effects publish.
func (eng *simulation) cancelSiblings(winner *attempt) {
	as := eng.live[winner.t.ID]
	if len(as) <= 1 {
		return
	}
	// Snapshot: cancelAttempt mutates the live slice.
	losers := make([]*attempt, 0, len(as)-1)
	for _, a := range as {
		if a != winner {
			losers = append(losers, a)
		}
	}
	for _, a := range losers {
		eng.cancelAttempt(a)
	}
}

// cancelAttempt cancels one losing speculation attempt. Unlike a kill
// abort, the loser's worker survives: its pipeline slot frees and it
// may immediately take other work. Resource rollback reuses the fault
// path's abortAcquire, so the loser's pins are dropped and its
// write-allocated replicas freed — a cancelled attempt never publishes
// writes, keeping the oracle's coherence replay valid.
func (eng *simulation) cancelAttempt(a *attempt) {
	t := a.t
	wk := a.wk
	a.cancelled = true
	busy := 0.0
	if a.run != nil && !a.run.cancelled {
		// The loser was mid-kernel: cancel its completion event, record
		// the cancelled span, and free the unit.
		a.run.cancelled = true
		endSeq := eng.nextSeq()
		eng.tr.AddSpan(trace.Span{
			Worker: wk.info.ID, TaskID: t.ID, Kind: t.Kind,
			Start: a.run.startAt, End: eng.now, Wait: a.run.wait,
			StartSeq: a.run.startSeq, EndSeq: endSeq, Cancelled: true,
		})
		busy = eng.now - a.run.startAt
		if wk.computing == t {
			wk.computing = nil
			wk.freeAt = eng.now
		}
	} else {
		// Staged, acquiring, or parked on a commute lock: no kernel ran,
		// no span. Drop a staged entry so the worker never starts it.
		for i := range wk.staged {
			if wk.staged[i].a == a {
				wk.staged = append(wk.staged[:i], wk.staged[i+1:]...)
				break
			}
		}
	}
	if a.pinned {
		eng.mm.abortAcquire(t, wk.info.Mem, a.wallocs)
	}
	if a.locked {
		eng.unlockCommute(t)
	}
	wk.inflight--
	eng.removeLive(a)
	eng.Discard(t, busy)
	// The loser's worker has a free slot now; let it compute its next
	// staged task and pop new work. Deferred to a fresh event so the
	// winner's completion effects (this very call stack) publish first.
	eng.At(eng.now, func() {
		eng.maybeCompute(wk)
		eng.wake(wk.info.ID)
	})
}
