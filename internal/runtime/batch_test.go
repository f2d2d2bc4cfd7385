package runtime

import (
	"math/rand"
	"testing"
)

// buildScript is a randomly generated submission script: access lists
// over a small handle pool (so handles repeat, within a task too), with
// every mode and the occasional task touching the whole pool, plus two
// cut points and explicit edges for the mixed-mode replay.
type buildScript struct {
	handles  int
	accesses [][]Access // per task; Handle is filled in per graph
	handleOf [][]int
	cutA     int      // tasks [0,cutA) form the first batch
	cutB     int      // tasks [cutA,cutB) go through Submit, the rest is the second batch
	declared [][2]int // from < to < cutB, declared after task cutB-1
}

func randomScript(seed int64, tasks, handles int) buildScript {
	rng := rand.New(rand.NewSource(seed))
	s := buildScript{handles: handles}
	modes := []AccessMode{R, R, R, W, RW, Commute}
	for i := 0; i < tasks; i++ {
		n := rng.Intn(5)
		if rng.Intn(16) == 0 {
			n = handles + rng.Intn(handles) // wide fan-in/fan-out, repeats included
		}
		var hs []int
		var acc []Access
		for j := 0; j < n; j++ {
			hs = append(hs, rng.Intn(handles))
			acc = append(acc, Access{Mode: modes[rng.Intn(len(modes))]})
		}
		s.handleOf = append(s.handleOf, hs)
		s.accesses = append(s.accesses, acc)
	}
	s.cutA = rng.Intn(tasks + 1)
	s.cutB = s.cutA + rng.Intn(tasks-s.cutA+1)
	for k := rng.Intn(4); k > 0 && s.cutB >= 2; k-- {
		to := 1 + rng.Intn(s.cutB-1)
		s.declared = append(s.declared, [2]int{rng.Intn(to), to})
	}
	return s
}

// build replays the script. batched selects SubmitBatch for the two
// outer segments (the middle one always goes through Submit); declare
// adds the explicit edges between the middle segment and the last.
func (s buildScript) build(batched, declare bool) *Graph {
	g := NewGraph()
	hs := make([]*DataHandle, s.handles)
	for i := range hs {
		hs[i] = g.NewData("h", 8)
	}
	accessesOf := func(i int) []Access {
		acc := make([]Access, len(s.accesses[i]))
		for j, a := range s.accesses[i] {
			acc[j] = Access{Handle: hs[s.handleOf[i][j]], Mode: a.Mode}
		}
		return acc
	}
	segment := func(lo, hi int, batch bool) {
		if !batch {
			for i := lo; i < hi; i++ {
				g.Submit(&Task{Kind: "k", Cost: []float64{1}, Accesses: accessesOf(i)})
			}
			return
		}
		specs := make([]TaskSpec, 0, hi-lo)
		for i := lo; i < hi; i++ {
			specs = append(specs, TaskSpec{Kind: "k", Cost: []float64{1}, Accesses: accessesOf(i)})
		}
		g.SubmitBatch(specs)
	}
	segment(0, s.cutA, batched)
	segment(s.cutA, s.cutB, false)
	if declare {
		for _, e := range s.declared {
			g.Declare(g.Tasks[e[0]], g.Tasks[e[1]])
		}
	}
	segment(s.cutB, len(s.accesses), batched)
	return g
}

// requireSameEdges fails unless both graphs hold the same tasks with the
// same Succs and Preds sequences (order included) and both validate.
func requireSameEdges(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	for _, g := range []*Graph{got, want} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", what, err)
		}
	}
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%s: %d tasks, want %d", what, len(got.Tasks), len(want.Tasks))
	}
	same := func(a, b []*Task) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	for i, tg := range got.Tasks {
		tw := want.Tasks[i]
		if tg.ID != tw.ID || tg.NumPreds() != tw.NumPreds() || tg.remaining.Load() != tw.remaining.Load() {
			t.Fatalf("%s: task %d: id/npreds/remaining %d/%d/%d, want %d/%d/%d", what, i,
				tg.ID, tg.NumPreds(), tg.remaining.Load(), tw.ID, tw.NumPreds(), tw.remaining.Load())
		}
		if !same(tg.Succs(), tw.Succs()) {
			t.Fatalf("%s: task %d: Succs differ", what, i)
		}
		if !same(got.Preds(tg), want.Preds(tw)) {
			t.Fatalf("%s: task %d: Preds differ", what, i)
		}
	}
}

func checkScript(t *testing.T, s buildScript) {
	// One batch against a Submit loop...
	whole := s
	whole.cutA, whole.cutB = len(s.accesses), len(s.accesses)
	requireSameEdges(t, "batch vs sequential", whole.build(true, false), whole.build(false, false))
	// ...and batch → Submit → Declare → second batch against the same
	// script through Submit alone.
	requireSameEdges(t, "mixed vs sequential", s.build(true, true), s.build(false, true))
}

// TestBatchMatchesSequentialRandom is the property behind SubmitBatch's
// contract: whatever the access pattern, and however batches, Submit
// and Declare are interleaved, the graph is edge-for-edge the one a
// plain Submit loop builds.
func TestBatchMatchesSequentialRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkScript(t, randomScript(seed, 1+int(seed%60), 1+int(seed%7)))
	}
}

func FuzzBatchMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3))
	f.Add(int64(2), uint8(200), uint8(1))
	f.Add(int64(3), uint8(7), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, tasks, handles uint8) {
		checkScript(t, randomScript(seed, 1+int(tasks), 1+int(handles)))
	})
}

// TestBatchViewsAreIsolated pins the exact-capacity rule of every slab
// view: appending to one task's Accesses, Cost or successor list
// reallocates instead of writing into the next task's.
func TestBatchViewsAreIsolated(t *testing.T) {
	g := NewGraph()
	b := g.NewBatch(3)
	h0 := b.NewData(8, "h%d", 0)
	h1 := b.NewData(8, "h%d.%d", 1, 23)
	for i := 0; i < 3; i++ {
		cost := b.Cost(2)
		cost[0] = float64(i + 1)
		b.Add(TaskSpec{Kind: "k", Cost: cost, Accesses: b.Accesses(
			Access{Handle: h0, Mode: R}, Access{Handle: h1, Mode: RW})})
	}
	ts := b.Submit()
	if h0.Name != "h0" || h1.Name != "h1.23" {
		t.Fatalf("handle names %q, %q", h0.Name, h1.Name)
	}
	// The RW chain on h1 gives task 0 and task 1 one successor each,
	// carved side by side out of one block.
	for i, task := range ts {
		if cap(task.Accesses) != len(task.Accesses) || cap(task.Cost) != len(task.Cost) ||
			cap(task.succs) != len(task.succs) || cap(g.Preds(task)) != len(g.Preds(task)) {
			t.Fatalf("task %d: a slab view has spare capacity", i)
		}
	}
	_ = append(ts[0].Accesses, Access{Handle: h0, Mode: W})
	_ = append(ts[0].Cost, 99)
	if a := ts[1].Accesses[0]; a.Handle != h0 || a.Mode != R {
		t.Fatalf("append to task 0's Accesses overwrote task 1's: %+v", a)
	}
	if ts[1].Cost[0] != 2 {
		t.Fatalf("append to task 0's Cost overwrote task 1's: %v", ts[1].Cost)
	}
	// A Submit after the batch appends past task 0's exact-size list.
	late := g.Submit(&Task{Kind: "late", Cost: []float64{1}, Accesses: []Access{{Handle: h0, Mode: W}}})
	if s := ts[0].Succs(); len(s) != 2 || s[0] != ts[1] || s[1] != late {
		t.Fatalf("task 0 successors after a late Submit: %v", s)
	}
	if s := ts[1].Succs(); len(s) != 2 || s[0] != ts[2] || s[1] != late {
		t.Fatalf("task 1 successors after a late Submit: %v", s)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTagsBox: slab-backed tags are indistinguishable from plain
// conversions — same dynamic type, same value, comparable — and cost no
// allocation each; pointer-shaped types are refused.
func TestTagsBox(t *testing.T) {
	type coord struct{ k, i, j int }
	tags := NewTags[coord](2)
	var boxed []any
	for i := 0; i < 5; i++ { // past the initial capacity: the slab regrows
		boxed = append(boxed, tags.Box(coord{i, i + 1, i + 2}))
	}
	for i, b := range boxed {
		if c, ok := b.(coord); !ok || c != (coord{i, i + 1, i + 2}) || b != any(coord{i, i + 1, i + 2}) {
			t.Fatalf("tag %d = %#v", i, b)
		}
	}
	ints := NewTags[int](1000)
	if n := testing.AllocsPerRun(100, func() { _ = ints.Box(123456).(int) }); n != 0 {
		t.Fatalf("Box allocates %v times per call", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewTags of a pointer type did not panic")
		}
	}()
	NewTags[*coord](1)
}
