// Package sim is a discrete-event simulator of heterogeneous computing
// nodes executing task graphs under a pluggable scheduler. It plays the
// role StarPU-over-SimGrid plays in the paper (Section V-D, Fig. 4):
// virtual time, per-unit execution speeds, PCIe links with bandwidth and
// contention, GPU memory capacity with LRU eviction and write-back, and
// background prefetch requests.
//
// The simulator is deterministic and has no randomness of its own:
// events are ordered by (time, sequence number), and the same graph
// under the same configuration gives the same run.
package sim

// evKind selects the handler the main loop dispatches an event to.
type evKind uint8

const (
	evWake     evKind = iota // a: worker — pop attempt
	evDrain                  // coalesced wake of every worker with a free slot
	evFinish                 // a: attempt — kernel completion
	evXferDone               // a: transfer record — payload arrival
	evFunc                   // a: thunk slot — arrivals, faults, speculation
)

// event is one scheduled simulator action: 24 bytes and no pointer, so
// the queue is memory the collector never scans.
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

// eventQueue is the simulator's pending-event set, in the exact (time,
// seq) total order:
//
//   - now: a FIFO of events scheduled at the current instant. The
//     engine's wake/drain events — the bulk of all events — land here
//     for O(1) instead of O(log n) push, and pop O(1) instead of a
//     sift-down. FIFO order is (time, seq) order by construction: all
//     entries share the current timestamp and seqs are assigned
//     monotonically.
//   - future: a binary min-heap ordered by (at, seq) of the events after
//     the current instant — a few per worker: kernel ends, transfer
//     arrivals, injected faults.
type eventQueue struct {
	now     []event
	nowHead int
	future  []event
}

func (q *eventQueue) len() int {
	return len(q.now) - q.nowHead + len(q.future)
}

// pushNow appends an event at the current instant. The caller (the
// engine's schedule) guarantees e.at equals the current virtual time and
// seqs are assigned in push order.
func (q *eventQueue) pushNow(e event) {
	q.now = append(q.now, e)
}

// push inserts an event strictly after the current instant: a direct
// binary-heap push (no interface boxing).
func (q *eventQueue) push(e event) {
	q.future = append(q.future, e)
	i := len(q.future) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.future[i].before(q.future[parent]) {
			break
		}
		q.future[i], q.future[parent] = q.future[parent], q.future[i]
		i = parent
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
	batch := len(dst)
	// The minimal timestamp is the smaller of the FIFO head and the heap
	// root; ties break by seq, and a same-instant heap event always has
	// the smaller seq (it was pushed before time reached the instant).
	for {
		var have bool
		var min event
		fromNow := false
		if q.nowHead < len(q.now) {
			min, have = q.now[q.nowHead], true
			fromNow = true
		}
		if len(q.future) > 0 && (!have || q.future[0].before(min)) {
			min, have = q.future[0], true
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
			q.popRoot()
		}
		dst = append(dst, min)
	}
	return dst
}

// popRoot removes the heap minimum.
func (q *eventQueue) popRoot() {
	n := len(q.future) - 1
	q.future[0] = q.future[n]
	q.future = q.future[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.future[r].before(q.future[l]) {
			m = r
		}
		if !q.future[m].before(q.future[i]) {
			return
		}
		q.future[i], q.future[m] = q.future[m], q.future[i]
		i = m
	}
}
