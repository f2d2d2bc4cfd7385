package oracle

import (
	"cmp"
	"slices"

	"multiprio/internal/platform"
	"multiprio/internal/trace"
)

// replayEvent is one entry of the merged, seq-ordered event stream: the
// memory event or the span at index idx of the trace, a span standing for
// its kernel start or its completion.
type replayEvent struct {
	seq  int64
	idx  int32
	kind replayKind
}

type replayKind uint8

const (
	replayMem replayKind = iota
	replayStart
	replayEnd
)

// The replay state of one replica is a version number, or one of these.
const (
	noSpace int64 = -2 // nothing allocated
	noValue int64 = -1 // space allocated, no valid value in it
)

// replayMemory re-executes the trace's replica state machine and checks
// data coherence and capacity. It relies on the engine's sequence
// numbers for an exact linearization of same-instant events. Tasks and
// handles are looked up by ID in the graph's tables and all state is
// flat — slices by ID, one handles × mems table — so that checking a run
// stays cheaper than simulating it.
func (c *checker) replayMemory() {
	for i, t := range c.g.Tasks {
		if t.ID != int64(i) {
			c.failf("oracle: task %d stored at index %d; cannot replay coherence", t.ID, i)
			return
		}
	}
	for i, h := range c.g.Handles {
		if h.ID != int64(i) {
			c.failf("oracle: handle %d stored at index %d; cannot replay coherence", h.ID, i)
			return
		}
	}
	events := make([]replayEvent, 0, len(c.tr.MemEvents)+2*len(c.tr.Spans))
	for i := range c.tr.MemEvents {
		e := &c.tr.MemEvents[i]
		if e.Seq <= 0 {
			c.failf("oracle: memory event without sequence number (handle %d on mem %d)", e.Handle, e.Mem)
			return
		}
		events = append(events, replayEvent{seq: e.Seq, idx: int32(i)})
	}
	for i := range c.tr.Spans {
		s := &c.tr.Spans[i]
		if s.StartSeq <= 0 || s.EndSeq <= 0 {
			c.failf("oracle: span of task %d lacks sequence numbers; cannot replay coherence", s.TaskID)
			return
		}
		events = append(events,
			replayEvent{seq: s.StartSeq, idx: int32(i), kind: replayStart},
			replayEvent{seq: s.EndSeq, idx: int32(i), kind: replayEnd})
	}
	slices.SortFunc(events, func(a, b replayEvent) int { return cmp.Compare(a.seq, b.seq) })
	for i := 1; i < len(events); i++ {
		if events[i].seq == events[i-1].seq {
			c.failf("oracle: duplicate sequence number %d in event stream", events[i].seq)
			return
		}
	}

	handles, mems := c.g.Handles, len(c.m.Mems)
	// replicas[h*mems+mem] is noSpace, noValue or the version valid there;
	// version[h] counts the writes to h completed so far.
	replicas := make([]int64, len(handles)*mems)
	for i := range replicas {
		replicas[i] = noSpace
	}
	version := make([]int64, len(handles))
	used := make([]int64, mems)
	for _, h := range handles {
		replicas[int(h.ID)*mems+int(h.Home)] = 0
		used[h.Home] += h.Bytes
	}
	// spaceChecked[h] is 1 + the index of the last kernel-start event that
	// checked h's space, so a task naming a handle twice reports it once.
	spaceChecked := make([]int, len(handles))
	capReported := make([]bool, mems)
	overflowAllowed := func(mem platform.MemID) bool {
		return c.opts.OverflowBytes != nil && int(mem) < len(c.opts.OverflowBytes) && c.opts.OverflowBytes[mem] > 0
	}

	for i, ev := range events {
		switch ev.kind {
		case replayMem:
			e := &c.tr.MemEvents[ev.idx]
			if e.Handle < 0 || e.Handle >= int64(len(handles)) {
				c.failf("oracle: memory event for unknown handle %d", e.Handle)
				continue
			}
			if e.Mem < 0 || int(e.Mem) >= mems {
				c.failf("oracle: memory event on unknown node %d", e.Mem)
				continue
			}
			r := &replicas[int(e.Handle)*mems+int(e.Mem)]
			switch e.Kind {
			case trace.MemAlloc:
				if *r != noSpace {
					c.failf("oracle: handle %d allocated twice on mem %d at t=%g", e.Handle, e.Mem, e.At)
					continue
				}
				*r = noValue
				used[e.Mem] += e.Bytes
				cap := c.m.Mems[e.Mem].CapacityBytes
				if cap > 0 && used[e.Mem] > cap && !overflowAllowed(e.Mem) && !capReported[e.Mem] {
					capReported[e.Mem] = true
					c.failf("oracle: mem %d (%s) holds %d bytes over its %d capacity at t=%g with no reported overflow",
						e.Mem, c.m.Mems[e.Mem].Name, used[e.Mem], cap, e.At)
				}
			case trace.MemValid:
				if *r == noSpace {
					c.failf("oracle: handle %d became valid on mem %d without allocation at t=%g", e.Handle, e.Mem, e.At)
					continue
				}
				cur := version[e.Handle]
				switch e.Version {
				case cur:
					// A copy of the current value arrived.
				case cur + 1:
					// A write completed here.
					version[e.Handle] = e.Version
				default:
					c.failf("oracle: handle %d on mem %d validated with version %d while the handle is at version %d (t=%g)",
						e.Handle, e.Mem, e.Version, cur, e.At)
					continue
				}
				*r = e.Version
			case trace.MemFree:
				if *r == noSpace {
					c.failf("oracle: handle %d freed on mem %d without allocation at t=%g", e.Handle, e.Mem, e.At)
					continue
				}
				*r = noSpace
				used[e.Mem] -= e.Bytes
				if used[e.Mem] < 0 {
					c.failf("oracle: mem %d accounting went negative at t=%g", e.Mem, e.At)
				}
			default:
				c.failf("oracle: unknown memory event kind %d", e.Kind)
			}

		case replayStart:
			// Kernel start: every read access must observe the current
			// version of its handle on the worker's memory node, and
			// every written handle must have space allocated. checkSpans
			// vouched for the span's task and worker.
			s := &c.tr.Spans[ev.idx]
			t := c.g.Tasks[s.TaskID]
			mem := c.m.Units[s.Worker].Mem
			for _, u := range t.Uses() {
				if spaceChecked[u.Handle] == i+1 {
					continue
				}
				spaceChecked[u.Handle] = i + 1
				if replicas[int(u.Handle)*mems+int(mem)] == noSpace {
					c.failf("oracle: task %d started on mem %d without space for handle %d (t=%g)",
						t.ID, mem, u.Handle, kernelStart(s))
				}
			}
			for _, u := range t.Uses() {
				if !u.Mode.IsRead() {
					continue
				}
				v := replicas[int(u.Handle)*mems+int(mem)]
				if v < 0 {
					c.failf("oracle: task %d read handle %d on mem %d with no valid replica (t=%g)",
						t.ID, u.Handle, mem, kernelStart(s))
					continue
				}
				if cur := version[u.Handle]; v != cur {
					c.failf("oracle: stale read: task %d observed version %d of handle %d on mem %d, last writer produced %d (t=%g)",
						t.ID, v, u.Handle, mem, cur, kernelStart(s))
				}
			}
		}
	}

	// Every completed write must have bumped its handle's version: the
	// final version equals the number of executed write accesses.
	// Reported in handle order, so the first violation named is the same
	// from run to run.
	expected := make([]int64, len(handles))
	for _, t := range c.g.Tasks {
		for _, u := range t.Uses() {
			if u.Mode.IsWrite() {
				expected[u.Handle]++
			}
		}
	}
	for hid, want := range expected {
		if got := version[hid]; got != want {
			c.failf("oracle: handle %d ends at version %d after %d write accesses executed", hid, got, want)
		}
	}
}
