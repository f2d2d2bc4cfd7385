package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refQueue is the seed implementation — a container/heap binary heap —
// kept as the executable specification of the (time, seq) total order.
type refQueue []event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// queueHarness drives the event queue and the reference heap with the
// same stream under the engine's invariants (pushes never target the
// past; same-instant pushes take the FIFO band) and fails on the first
// divergence in pop order.
type queueHarness struct {
	t    *testing.T
	q    eventQueue
	ref  refQueue
	now  float64
	seq  int64
	buf  []event
	pops int
}

func (h *queueHarness) push(delta float64) {
	if delta < 0 {
		delta = -delta
	}
	at := h.now + delta
	h.seq++
	// Kind and payload vary with the stream so that a queue band mixing
	// up the records of two events cannot go unnoticed.
	e := event{at: at, seq: h.seq, kind: evKind(h.seq % 5), a: int32(h.seq * 7)}
	if at <= h.now {
		h.q.pushNow(e)
	} else {
		h.q.push(e)
	}
	heap.Push(&h.ref, e)
}

// popBatch drains one same-timestamp batch from the event queue and
// checks it against the reference heap event by event.
func (h *queueHarness) popBatch() {
	if h.q.len() != len(h.ref) {
		h.t.Fatalf("len mismatch: queue %d, reference %d", h.q.len(), len(h.ref))
	}
	if len(h.ref) == 0 {
		if got := h.q.popBatch(nil); len(got) != 0 {
			h.t.Fatalf("popBatch on empty queue returned %d events", len(got))
		}
		return
	}
	h.buf = h.q.popBatch(h.buf[:0])
	if len(h.buf) == 0 {
		h.t.Fatalf("popBatch returned empty batch with %d events pending", len(h.ref))
	}
	for i, got := range h.buf {
		want := heap.Pop(&h.ref).(event)
		if got != want {
			h.t.Fatalf("pop %d (batch index %d): queue %+v, reference %+v", h.pops, i, got, want)
		}
		// Batches may legitimately repeat a timestamp (handlers push
		// same-instant events between batches); monotonicity is all the
		// engine needs.
		if got.at < h.now {
			h.t.Fatalf("pop %d went backwards: %g < %g", h.pops, got.at, h.now)
		}
		h.now = got.at
		h.pops++
		if i > 0 && h.buf[i].at != h.buf[0].at {
			h.t.Fatalf("batch mixes timestamps %g and %g", h.buf[0].at, h.buf[i].at)
		}
	}
}

// TestEventQueueMatchesHeap is the property test: randomized interleaved
// push/pop streams — including bursts of thousands of pending events and
// heavy same-timestamp storms — must pop in exactly the reference
// heap's (time, seq) order.
func TestEventQueueMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &queueHarness{t: t}
		total := 0
		for round := 0; round < 40; round++ {
			burst := rng.Intn(1200)
			for i := 0; i < burst; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					h.push(0) // same-instant FIFO band
				case 4, 5, 6:
					h.push(rng.Float64()) // near future
				case 7, 8:
					h.push(10 + 1000*rng.Float64()) // far future
				default:
					h.push(float64(rng.Intn(4))) // duplicate timestamps
				}
				total++
			}
			drains := rng.Intn(20)
			for i := 0; i < drains && len(h.ref) > 0; i++ {
				h.popBatch()
			}
		}
		for len(h.ref) > 0 {
			h.popBatch()
		}
		h.popBatch() // empty queue must stay empty
		if h.pops != total {
			t.Fatalf("seed %d: popped %d of %d events", seed, h.pops, total)
		}
	}
}

// FuzzEventQueue feeds arbitrary op streams to the harness. Each byte
// pair is one operation: even selector pushes with a delta derived from
// the second byte (zero delta = same-timestamp batch), odd drains one
// batch.
func FuzzEventQueue(f *testing.F) {
	// Seed exercising same-timestamp batches: push storms of delta zero
	// interleaved with drains.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 2, 5, 0, 0, 1, 0, 1, 0})
	// Seed mixing duplicate future timestamps with drains.
	f.Add([]byte{2, 10, 2, 10, 2, 10, 1, 0, 2, 3, 0, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &queueHarness{t: t}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			if op%2 == 0 {
				h.push(float64(arg) / 8)
			} else if len(h.ref) > 0 {
				h.popBatch()
			}
		}
		for len(h.ref) > 0 {
			h.popBatch()
		}
	})
}
