package oracle

import (
	"sort"

	"multiprio/internal/platform"
	"multiprio/internal/trace"
)

// checkCluster validates inter-node data movement of a multi-node
// (platform.NewCluster) run. The per-memory coherence replay already
// covers every node's replicas — this adds the two physically-grounded
// cluster invariants:
//
//   - a value can only cross nodes by traversing the interconnect:
//     whenever a task reads a handle whose producing write ran on a
//     different node (or whose initial value is homed on one), a
//     non-failed transfer of that handle must have arrived at the
//     reader's node after the producer finished and before the kernel
//     started;
//   - every cross-node transfer takes at least the composite link time
//     of its (src, dst, bytes) — data never moves faster than the
//     interconnect allows.
//
// Requires the simulator's sequence numbers (it runs only when memory
// events were collected, where replayMemory already enforces them).
func (c *checker) checkCluster() {
	for i := range c.tr.Spans {
		if s := &c.tr.Spans[i]; s.StartSeq <= 0 || s.EndSeq <= 0 {
			return // replayMemory already reported the missing seqs
		}
	}
	eps := c.opts.Eps

	// Link-time lower bound on every cross-node transfer.
	for i := range c.tr.Xfers {
		x := &c.tr.Xfers[i]
		if c.m.NodeOfMem(x.Src) == c.m.NodeOfMem(x.Dst) {
			continue
		}
		// The relative slack absorbs the rounding of End-Start against
		// the link-time formula; it is far below any real shortcut.
		if min := c.m.TransferTime(x.Src, x.Dst, x.Bytes); x.End-x.Start < min-eps-min*1e-9 {
			c.failf("oracle: inter-node transfer of handle %d (%d bytes, mem %d->%d) took %g, below the %g link time",
				x.Handle, x.Bytes, x.Src, x.Dst, x.End-x.Start, min)
		}
	}

	// Successful writer spans per handle, in completion (EndSeq) order —
	// the version order the coherence replay validated.
	writersOf := make(map[int64][]*trace.Span)
	for _, t := range c.g.Tasks {
		s := c.spanOf[t.ID]
		if s == nil {
			continue
		}
		uses := t.Uses()
		seen := make(map[int32]bool, len(uses))
		for _, u := range uses {
			if u.Mode.IsWrite() && !seen[u.Handle] {
				seen[u.Handle] = true
				writersOf[int64(u.Handle)] = append(writersOf[int64(u.Handle)], s)
			}
		}
	}
	for _, ws := range writersOf {
		sort.Slice(ws, func(i, j int) bool { return ws[i].EndSeq < ws[j].EndSeq })
	}

	// Non-failed arrivals from another node, per (handle, destination
	// node).
	type hnode struct {
		h    int64
		node platform.NodeID
	}
	arrivals := make(map[hnode][]*trace.Transfer)
	for i := range c.tr.Xfers {
		x := &c.tr.Xfers[i]
		if x.Failed {
			continue
		}
		dst := c.m.NodeOfMem(x.Dst)
		if c.m.NodeOfMem(x.Src) == dst {
			continue
		}
		k := hnode{x.Handle, dst}
		arrivals[k] = append(arrivals[k], x)
	}

	homeNode := make(map[int64]platform.NodeID, len(c.g.Handles))
	for _, h := range c.g.Handles {
		homeNode[h.ID] = c.m.NodeOfMem(h.Home)
	}

	for _, t := range c.g.Tasks {
		s := c.spanOf[t.ID]
		if s == nil {
			continue
		}
		readerNode := c.m.NodeOfUnit(s.Worker)
		ks := kernelStart(s)
		uses := t.Uses()
		checked := make(map[int32]bool, len(uses))
		for _, u := range uses {
			if !u.Mode.IsRead() || checked[u.Handle] {
				continue
			}
			checked[u.Handle] = true
			h := int64(u.Handle)
			// The value the reader must observe was produced by the last
			// write completed before its kernel start; with no writer yet,
			// it is the initial value at the handle's home.
			producerNode, producerEnd := homeNode[h], 0.0
			for _, w := range writersOf[h] {
				if w.EndSeq >= s.StartSeq {
					break
				}
				producerNode = c.m.NodeOfUnit(w.Worker)
				producerEnd = w.End
			}
			if producerNode == readerNode {
				continue
			}
			// Like the link-time bound, the window tolerates float rounding
			// of the engine's arithmetic (observed at the 1e-20 level);
			// the slack is dwarfed by any real transfer or kernel.
			lo := producerEnd - eps - 1e-9*(1+producerEnd)
			hi := ks + eps + 1e-9*(1+ks)
			ok := false
			for _, x := range arrivals[hnode{h, readerNode}] {
				if x.Start >= lo && x.End <= hi {
					ok = true
					break
				}
			}
			if !ok {
				c.failf("oracle: task %d on node %d read handle %d produced on node %d at t=%g, but no interconnect transfer delivered it before its kernel start at t=%g",
					t.ID, readerNode, h, producerNode, producerEnd, ks)
			}
		}
	}
}
