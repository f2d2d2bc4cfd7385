package sim

import (
	"slices"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/trace"
)

// stage is where an attempt is in the worker's pipeline.
type stage uint8

const (
	parked   stage = iota // waiting for a busy commute lock
	fetching              // locks held, data pinned, transfers in flight
	ready                 // data in place, queued for the unit
	running               // its kernel occupies the unit
)

// held is what one attempt holds in the simulator, indexed by its
// runtime.Attempt: its place in the pipeline, what a rollback gives back,
// and its kernel's stamps. Which task and worker it is, and whether it is
// still in flight, are the run core's.
type held struct {
	stage stage
	// parkedOn is the commute handle a parked attempt waits for; join the
	// record that stages a fetching one.
	parkedOn int64
	join     int32
	// since is when staging began: the pop, or the release of the commute
	// lock it waited for.
	since float64
	// wallocs are the handles its acquire write-allocated (kept under a
	// fault plan only); see abortAcquire.
	wallocs []int32
	// startAt, wait, dur and startSeq stamp its kernel; finishSeq is the
	// seq of the kernel's evFinish, 0 once that event no longer means
	// this attempt.
	startAt, wait, dur  float64
	startSeq, finishSeq int64
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
// time: every attempt the worker holds — running, staged, fetching, or
// parked on a commute lock — is rolled back oldest first, for a
// deterministic rollback (and hence event) sequence; the scheduler's view
// of the machine shrinks, and — when the worker was the last one of its
// memory node — the node's replicas are lost.
func (eng *simulation) applyKill(u platform.UnitID) {
	if !eng.KillWorker(u) {
		return
	}
	for a := eng.Holding(u); a != runtime.NoAttempt; a = eng.Holding(u) {
		eng.rollback(a, true)
	}
	// Device loss: the node's memory dies with its last worker.
	if mem := eng.workers[u].info.Mem; eng.liveOn(mem) == 0 {
		eng.Faults.LostReplicas += eng.mm.loseNode(mem)
	}
	eng.WorkerDown(u)
	// Other workers may now be the best (or only) home for re-pushed
	// work; re-probe everyone.
	eng.wakeAll()
}

// rollback ends attempt a before its kernel completed: a kill took it
// down, or a speculation sibling won. A running kernel records its span
// (failed or cancelled) and frees the unit; the attempt leaves its place
// in the pipeline, and its pins, write allocations and commute locks are
// given back — a rolled-back attempt never publishes writes, keeping the
// oracle's coherence replay valid. The core then retries a killed
// attempt's task after the plan's backoff unless a sibling still carries
// it, and counts a loser's wasted work.
func (eng *simulation) rollback(a runtime.Attempt, killed bool) {
	t, h := eng.Task(a), &eng.held[a]
	wk := &eng.workers[eng.Worker(a)]
	busy := 0.0
	switch h.stage {
	case parked:
		ws := eng.commuteWaiters[h.parkedOn]
		i := slices.Index(ws, a)
		eng.commuteWaiters[h.parkedOn] = slices.Delete(ws, i, i+1)
	case fetching:
		eng.mm.joins.recs[h.join].a = runtime.NoAttempt // in-flight fetches land unclaimed
	case ready:
		i := slices.Index(wk.staged, a)
		wk.staged = slices.Delete(wk.staged, i, i+1)
	case running:
		h.finishSeq = 0
		busy = eng.now - h.startAt
		eng.tr.AddSpan(trace.Span{
			Worker: wk.info.ID, TaskID: t.ID, Kind: t.Kind(),
			Start: h.startAt, End: eng.now, Wait: h.wait,
			StartSeq: h.startSeq, EndSeq: eng.nextSeq(), Failed: killed, Cancelled: !killed,
		})
		wk.computing, wk.freeAt = runtime.NoAttempt, eng.now
	}
	if h.stage != parked {
		eng.mm.abortAcquire(t, wk.info.Mem, h.wallocs)
		eng.unlockCommute(t)
	}
	wk.inflight--
	if killed {
		eng.Abandon(a)
		return
	}
	eng.Discard(a, busy)
	// The loser's worker survives with a free slot: let it compute its
	// next staged task and pop new work — in a fresh event, so the
	// winner's completion effects (this very call stack) publish first.
	eng.At(eng.now, func() {
		eng.maybeCompute(wk)
		eng.wake(wk.info.ID)
	})
}
