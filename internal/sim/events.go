// Package sim is a discrete-event simulator of heterogeneous computing
// nodes executing task graphs under a pluggable scheduler. It plays the
// role StarPU-over-SimGrid plays in the paper (Section V-D, Fig. 4):
// virtual time, per-unit execution speeds, PCIe links with bandwidth and
// contention, GPU memory capacity with LRU eviction and write-back, and
// background prefetch requests.
//
// The simulator is deterministic: events are ordered by (time, sequence
// number) and all randomness flows from the seed in Options.
package sim

import (
	"cmp"
	"slices"
)

// evKind selects the handler the main loop dispatches an event to.
type evKind uint8

const (
	evWake     evKind = iota // a: worker — pop attempt
	evDrain                  // coalesced wake of every worker with a free slot
	evFinish                 // a: worker — fault-free kernel completion (wk.fin)
	evXferDone               // a: transfer record — payload arrival
	evFunc                   // a: thunk slot — fault, speculation and streaming events
)

// event is one scheduled simulator action: 24 bytes and no pointer, so
// the three queue bands are memory the collector never scans.
type event struct {
	at   float64
	seq  int64
	a    int32
	kind evKind
}

// before is the total order of the simulation: (time, seq).
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Ladder-queue tuning. Below spillLimit the structure is a plain binary
// heap (the seed implementation's behaviour, minus the container/heap
// interface boxing that allocated per push); past it, the upper half of
// the heap spills into an unsorted far band that pushes and pops touch
// only when virtual time catches up.
const (
	// spillLimit is the near-heap size that triggers a spill into the
	// far band. Steady-state simulations hold a handful of events per
	// worker, so only event storms (million-task graphs releasing wide
	// fronts, long fault plans injected up front) ever cross it.
	spillLimit = 4096
	// refillTarget caps how many far events one refill promotes back
	// into the near heap.
	refillTarget = spillLimit / 2
)

// eventQueue is the simulator's pending-event set, a three-band
// calendar/ladder queue with an exact (time, seq) total order:
//
//   - now: a FIFO of events scheduled at the current instant. The
//     engine's wake/drain events — the bulk of all events — land here
//     for O(1) instead of O(log n) push, and pop O(1) instead of a
//     sift-down. FIFO order is (time, seq) order by construction: all
//     entries share the current timestamp and seqs are assigned
//     monotonically.
//   - near: a binary min-heap ordered by (at, seq), holding every
//     pending event below the horizon.
//   - far: an unsorted band of events at or past the horizon. Pushes
//     append O(1); the band is only sorted (once, in bulk) when the
//     near heap drains and virtual time reaches it.
//
// The horizon invariant — near events strictly below it, far events at
// or past it — makes the near-heap minimum the global minimum, so pops
// preserve the exact order of the seed's single binary heap.
type eventQueue struct {
	now     []event
	nowHead int
	near    []event
	far     []event
	horizon float64
	hasFar  bool
}

func (q *eventQueue) len() int {
	return len(q.now) - q.nowHead + len(q.near) + len(q.far)
}

// pushNow appends an event at the current instant. The caller (the
// engine's at()) guarantees e.at equals the current virtual time and
// seqs are assigned in push order.
func (q *eventQueue) pushNow(e event) {
	q.now = append(q.now, e)
}

// push inserts an event strictly after the current instant.
func (q *eventQueue) push(e event) {
	if q.hasFar && e.at >= q.horizon {
		q.far = append(q.far, e)
		return
	}
	q.pushNear(e)
	if len(q.near) >= spillLimit {
		q.spill()
	}
}

// spill moves the upper half of the near heap (by timestamp) into the
// far band. When every near event shares one timestamp nothing can
// move; the heap simply keeps growing, which stays correct (and such
// same-instant storms drain through popBatch immediately anyway).
func (q *eventQueue) spill() {
	// Median timestamp via a sorted copy of the at values: O(n log n)
	// once per spillLimit pushes, amortized O(log n) per push.
	ats := make([]float64, len(q.near))
	for i, e := range q.near {
		ats[i] = e.at
	}
	slices.Sort(ats)
	pivot := ats[len(ats)/2]
	if pivot <= ats[0] {
		return // lower half is one timestamp; nothing strictly above it may split
	}
	if q.hasFar && q.horizon < pivot {
		pivot = q.horizon // never raise the horizon over existing far events
	}
	w := 0
	for _, e := range q.near {
		if e.at >= pivot {
			q.far = append(q.far, e)
		} else {
			q.near[w] = e
			w++
		}
	}
	if w == len(q.near) {
		return
	}
	q.near = q.near[:w]
	q.heapify()
	q.horizon = pivot
	q.hasFar = true
}

// refill promotes the earliest far events into the near heap once the
// near heap has drained. It sorts the band, takes up to refillTarget
// events (never splitting a timestamp: the horizon must sit strictly
// between event times to keep the order exact), and heapifies.
func (q *eventQueue) refill() {
	slices.SortFunc(q.far, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	n := refillTarget
	if n > len(q.far) {
		n = len(q.far)
	}
	// Extend past ties: every event sharing the cut timestamp moves.
	for n < len(q.far) && q.far[n].at == q.far[n-1].at {
		n++
	}
	q.near = append(q.near, q.far[:n]...)
	copy(q.far, q.far[n:])
	q.far = q.far[:len(q.far)-n]
	// The promoted block is sorted, which is a valid min-heap already.
	if len(q.far) == 0 {
		q.hasFar = false
	} else {
		q.horizon = q.far[0].at // sorted: the remaining minimum
		// Re-sorting left the band ordered; that is fine, it stays an
		// append-only unsorted set from here.
	}
}

// popBatch removes and returns (appended to dst) every pending event
// sharing the minimal timestamp, in (time, seq) order. The engine
// processes the batch without re-consulting the queue between events;
// events pushed by the batch's handlers at the same instant form the
// next batch (their seqs are larger than anything in this one).
func (q *eventQueue) popBatch(dst []event) []event {
	if q.nowHead > 0 && q.nowHead == len(q.now) {
		q.now = q.now[:0]
		q.nowHead = 0
	}
	if len(q.near) == 0 && q.hasFar {
		// The near heap drained. If the now FIFO still has events they
		// are at the current instant, necessarily before the horizon —
		// unless time has caught up with the band, in which case the
		// band must be consulted too.
		if q.nowHead == len(q.now) || q.now[q.nowHead].at >= q.horizon {
			q.refill()
		}
	}
	batch := len(dst)
	// The minimal timestamp is the smaller of the FIFO head and the
	// near-heap root; ties break by seq, and a same-instant heap event
	// always has the smaller seq (it was pushed before time reached the
	// instant).
	for {
		var have bool
		var min event
		fromNow := false
		if q.nowHead < len(q.now) {
			min, have = q.now[q.nowHead], true
			fromNow = true
		}
		if len(q.near) > 0 && (!have || q.near[0].before(min)) {
			min, have = q.near[0], true
			fromNow = false
		}
		if !have {
			break
		}
		if len(dst) > batch && min.at != dst[batch].at {
			break // next timestamp: the batch is complete
		}
		if fromNow {
			q.nowHead++
		} else {
			q.popNearRoot()
		}
		dst = append(dst, min)
	}
	return dst
}

// pushNear is a direct binary-heap push (no interface boxing).
func (q *eventQueue) pushNear(e event) {
	q.near = append(q.near, e)
	i := len(q.near) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.near[i].before(q.near[parent]) {
			break
		}
		q.near[i], q.near[parent] = q.near[parent], q.near[i]
		i = parent
	}
}

// popNearRoot removes the near-heap minimum.
func (q *eventQueue) popNearRoot() {
	n := len(q.near) - 1
	q.near[0] = q.near[n]
	q.near = q.near[:n]
	q.siftDown(0)
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.near)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.near[r].before(q.near[l]) {
			m = r
		}
		if !q.near[m].before(q.near[i]) {
			return
		}
		q.near[i], q.near[m] = q.near[m], q.near[i]
		i = m
	}
}

// heapify rebuilds the near heap in place after a spill.
func (q *eventQueue) heapify() {
	for i := len(q.near)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}
