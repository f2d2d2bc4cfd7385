package runtime

import (
	"math/rand"
	"strings"
	"testing"
)

// predIDs returns the sorted-free raw predecessor ID list of t.
func predIDs(g *Graph, t *Task) []int64 {
	var ids []int64
	for _, p := range g.Preds(t) {
		ids = append(ids, int64(p))
	}
	return ids
}

// TestInferenceEdgeCases table-drives the trickier STF inference
// shapes: wide write-after-read fan-in, repeated RW chains on one
// handle, and tasks mixing commute and plain accesses.
func TestInferenceEdgeCases(t *testing.T) {
	mk := func(g *Graph, acc ...Access) *Task {
		return g.Submit(TaskSpec{Kind: "k", Cost: []float64{1}, Accesses: acc})
	}
	t.Run("write-after-read fan-in", func(t *testing.T) {
		// One writer, eight readers, then a second writer: per the STF
		// rule the second writer depends on the last writer and every
		// reader since (the writer edge is transitively redundant but
		// part of the documented contract), and on nothing else.
		g := NewGraph()
		h := g.NewData("h", 8)
		want := map[int64]bool{mk(g, Access{Handle: h, Mode: W}).ID: true}
		for i := 0; i < 8; i++ {
			want[mk(g, Access{Handle: h, Mode: R}).ID] = true
		}
		w2 := mk(g, Access{Handle: h, Mode: W})
		preds := predIDs(g, w2)
		if len(preds) != len(want) {
			t.Fatalf("second writer has %d preds, want %d", len(preds), len(want))
		}
		for _, id := range preds {
			if !want[id] {
				t.Fatalf("unexpected predecessor %d", id)
			}
		}
	})
	t.Run("repeated RW chain", func(t *testing.T) {
		// N successive RW tasks on one handle must form a pure chain:
		// each task depends exactly on its immediate predecessor.
		g := NewGraph()
		h := g.NewData("h", 8)
		var prev *Task
		for i := 0; i < 6; i++ {
			cur := mk(g, Access{Handle: h, Mode: RW})
			preds := predIDs(g, cur)
			if prev == nil {
				if len(preds) != 0 {
					t.Fatalf("first RW task has %d preds", len(preds))
				}
			} else if len(preds) != 1 || preds[0] != prev.ID {
				t.Fatalf("RW task %d preds = %v, want [%d]", cur.ID, preds, prev.ID)
			}
			prev = cur
		}
	})
	t.Run("commute mixed with plain accesses", func(t *testing.T) {
		// Two commuting updaters of acc that also read distinct inputs:
		// no dependency among themselves, each depends on its input's
		// writer; a final reader of acc closes the group over both.
		g := NewGraph()
		acc := g.NewData("acc", 8)
		in1, in2 := g.NewData("in1", 8), g.NewData("in2", 8)
		p1 := mk(g, Access{Handle: in1, Mode: W})
		p2 := mk(g, Access{Handle: in2, Mode: W})
		c1 := mk(g, Access{Handle: in1, Mode: R}, Access{Handle: acc, Mode: Commute})
		c2 := mk(g, Access{Handle: in2, Mode: R}, Access{Handle: acc, Mode: Commute})
		if got := predIDs(g, c1); len(got) != 1 || got[0] != p1.ID {
			t.Fatalf("c1 preds = %v, want [%d]", got, p1.ID)
		}
		if got := predIDs(g, c2); len(got) != 1 || got[0] != p2.ID {
			t.Fatalf("c2 preds = %v, want [%d]", got, p2.ID)
		}
		r := mk(g, Access{Handle: acc, Mode: R})
		got := map[int64]bool{}
		for _, id := range predIDs(g, r) {
			got[id] = true
		}
		if len(got) != 2 || !got[c1.ID] || !got[c2.ID] {
			t.Fatalf("group-closing reader preds = %v, want {%d, %d}", got, c1.ID, c2.ID)
		}
	})
}

// TestSubmitEdgeOrderDeterministic is the regression test for the
// map-iteration bug in Submit: identically-built graphs must present
// Succs and Preds in identical order, because engines release
// successors and schedulers break timestamp ties in that order — a
// shuffled edge list made whole simulations diverge run to run.
func TestSubmitEdgeOrderDeterministic(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		hs := make([]*DataHandle, 6)
		for i := range hs {
			hs[i] = g.NewData("h", 8)
		}
		// Writers over all handles, readers crossing them, then a wide
		// writer joining everything — plenty of multi-pred tasks.
		for i := range hs {
			g.Submit(TaskSpec{Kind: "w", Cost: []float64{1},
				Accesses: []Access{{Handle: hs[i], Mode: W}}})
		}
		for i := range hs {
			g.Submit(TaskSpec{Kind: "r", Cost: []float64{1}, Accesses: []Access{
				{Handle: hs[i], Mode: R}, {Handle: hs[(i+1)%len(hs)], Mode: R}}})
		}
		var all []Access
		for _, h := range hs {
			all = append(all, Access{Handle: h, Mode: RW})
		}
		g.Submit(TaskSpec{Kind: "join", Cost: []float64{1}, Accesses: all})
		return g
	}
	a, b := build(), build()
	for i, ta := range a.Tasks {
		tb := b.Tasks[i]
		pa, pb := predIDs(a, ta), predIDs(b, tb)
		if len(pa) != len(pb) {
			t.Fatalf("task %d: %d vs %d preds", i, len(pa), len(pb))
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("task %d: pred order diverges at %d: %v vs %v", i, j, pa, pb)
			}
		}
		sa, sb := ta.Succs(), tb.Succs()
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("task %d: succ order diverges at %d", i, j)
			}
		}
	}
}

// TestForeignHandleRejected pins that a task may access only handles of
// the graph it is submitted to. Another graph's handle whose ID is in
// range here used to be admitted: inference took it for this graph's
// handle of the same ID while the engines read the foreign handle's size
// and home. Submit and Batch.Add panic on it, as on an out-of-range ID
// and a nil handle, before the task is staged.
func TestForeignHandleRejected(t *testing.T) {
	g, other := NewGraph(), NewGraph()
	mine := g.NewData("mine", 8)
	g.NewData("mine too", 8)
	foreign := other.NewData("foreign", 64) // ID 0, in range in g
	other.NewData("between", 64)
	far := other.NewData("far", 64) // ID 2, out of range in g
	for _, c := range []struct {
		name string
		h    *DataHandle
		want string
	}{
		{"in-range foreign", foreign, "not registered with this graph"},
		{"out-of-range foreign", far, "not registered with this graph"},
		{"nil", nil, "nil handle"},
	} {
		for _, batch := range []bool{false, true} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
						t.Errorf("%s (batch %v): panic %q, want one naming %q", c.name, batch, msg, c.want)
					}
				}()
				spec := TaskSpec{Kind: "k", Cost: []float64{1},
					Accesses: []Access{{Handle: mine, Mode: RW}, {Handle: c.h, Mode: R}}}
				if batch {
					g.NewBatch(1).Add(spec)
				} else {
					g.Submit(spec)
				}
			}()
		}
	}
	if len(g.Tasks) != 0 || len(g.uses) != 0 {
		t.Fatalf("rejected tasks left %d tasks and %d uses behind", len(g.Tasks), len(g.uses))
	}
}

// TestRepeatsFlag holds Task.Repeats to its definition — some handle
// named twice among the task's uses — over random access lists in every
// mode, submitted one by one, through a batch, and again after a
// Validate made the next Submit replay inference.
func TestRepeatsFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	modes := []AccessMode{R, W, RW, Commute}
	build := func(batch bool) *Graph {
		rng.Seed(5)
		g := NewGraph()
		hs := make([]*DataHandle, 6)
		for i := range hs {
			hs[i] = g.NewData("h", 8)
		}
		var b *Batch
		if batch {
			b = g.NewBatch(0)
		}
		for i := 0; i < 400; i++ {
			acc := make([]Access, rng.Intn(5))
			for j := range acc {
				acc[j] = Access{Handle: hs[rng.Intn(len(hs))], Mode: modes[rng.Intn(len(modes))]}
			}
			spec := TaskSpec{Kind: "k", Cost: []float64{1}, Accesses: acc}
			if batch {
				b.Add(spec)
			} else {
				g.Submit(spec)
			}
			if !batch && i == 200 {
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if batch {
			b.Submit()
		}
		return g
	}
	for _, batch := range []bool{false, true} {
		repeats := 0
		for _, task := range build(batch).Tasks {
			uses, want := task.Uses(), false
			for i := range uses {
				for _, prev := range uses[:i] {
					want = want || prev.Handle == uses[i].Handle
				}
			}
			if task.Repeats() != want {
				t.Fatalf("batch %v: task %d uses %v: Repeats() = %v, want %v", batch, task.ID, uses, task.Repeats(), want)
			}
			if want {
				repeats++
			}
		}
		if repeats == 0 || repeats == 400 {
			t.Fatalf("batch %v: %d of 400 tasks repeat a handle: the draw tests nothing", batch, repeats)
		}
	}
}
