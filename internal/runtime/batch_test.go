package runtime

import (
	"math/rand"
	"slices"
	"testing"
)

// buildScript is a randomly generated submission script: access lists
// over a small handle pool (so handles repeat, within a task too), with
// every mode and the occasional task touching the whole pool, cut into
// batches and Submit runs with explicit edges declared in between — onto
// the newest task, onto older ones, repeated, and doubling inferred ones
// — and Validate calls, after which the graph regrows from a replay.
type buildScript struct {
	handles  int
	accesses [][]Access // per task; Handle is filled in per graph
	handleOf [][]int
	ops      []scriptOp
}

// scriptOp submits tasks [lo,hi) — in one batch or one by one — or, with
// declare set, declares the edge lo -> hi, or, with validate set,
// validates the graph.
type scriptOp struct {
	lo, hi                   int
	batch, declare, validate bool
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
	for done := 0; done < tasks; {
		n := 1 + rng.Intn(tasks-done)
		s.ops = append(s.ops, scriptOp{lo: done, hi: done + n, batch: rng.Intn(3) > 0})
		done += n
		for k := rng.Intn(4); k > 0 && done >= 2; k-- {
			to := 1 + rng.Intn(done-1)
			if rng.Intn(3) == 0 {
				to = done - 1 // the newest task: its row is the end of the log
			}
			s.ops = append(s.ops, scriptOp{lo: rng.Intn(to), hi: to, declare: true})
			if rng.Intn(4) == 0 {
				s.ops = append(s.ops, scriptOp{validate: true}) // between Declares
			}
		}
		if rng.Intn(2) == 0 {
			s.ops = append(s.ops, scriptOp{validate: true})
		}
	}
	return s
}

// build replays the script; with batched unset the batches go through
// Submit too.
func (s buildScript) build(t *testing.T, batched bool) *Graph {
	t.Helper()
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
	for _, op := range s.ops {
		switch {
		case op.validate:
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate mid-script: %v", err)
			}
		case op.declare:
			g.Declare(g.Tasks[op.lo], g.Tasks[op.hi])
		case op.batch && batched:
			specs := make([]TaskSpec, 0, op.hi-op.lo)
			for i := op.lo; i < op.hi; i++ {
				specs = append(specs, TaskSpec{Kind: "k", Cost: []float64{1}, Accesses: accessesOf(i)})
			}
			g.SubmitBatch(specs)
		default:
			for i := op.lo; i < op.hi; i++ {
				g.Submit(&Task{Kind: "k", Cost: []float64{1}, Accesses: accessesOf(i)})
			}
		}
	}
	return g
}

// edgeModel is the reference the graph is checked against: the STF rule
// and Declare over plain per-task lists, every list grown by append at
// the moment its edge is made — the representation the graph had before
// its topology became one int32 pool.
type edgeModel struct {
	preds, succs [][]int32
	lastWriter   []int32 // per handle, -1 for none
	readers      [][]int32
	commuters    [][]int32
}

func (s buildScript) model() *edgeModel {
	m := &edgeModel{readers: make([][]int32, s.handles), commuters: make([][]int32, s.handles)}
	for i := 0; i < s.handles; i++ {
		m.lastWriter = append(m.lastWriter, -1)
	}
	for _, op := range s.ops {
		if op.declare {
			if from, to := int32(op.lo), int32(op.hi); !slices.Contains(m.preds[to], from) {
				m.preds[to] = append(m.preds[to], from)
				m.succs[from] = append(m.succs[from], to)
			}
			continue
		}
		for i := op.lo; i < op.hi; i++ {
			m.submit(int32(i), s.handleOf[i], s.accesses[i])
		}
	}
	return m
}

func (m *edgeModel) submit(id int32, handles []int, acc []Access) {
	var deps []int32
	dep := func(ds ...int32) {
		for _, d := range ds {
			if d >= 0 && d != id && !slices.Contains(deps, d) {
				deps = append(deps, d)
			}
		}
	}
	for j, h := range handles {
		switch acc[j].Mode {
		case R:
			if len(m.commuters[h]) > 0 {
				dep(m.commuters[h]...)
				m.commuters[h], m.readers[h], m.lastWriter[h] = nil, nil, -1
			} else {
				dep(m.lastWriter[h])
			}
			m.readers[h] = append(m.readers[h], id)
		case Commute:
			dep(m.lastWriter[h])
			dep(m.readers[h]...)
			m.commuters[h] = append(m.commuters[h], id)
		default:
			dep(m.lastWriter[h])
			dep(m.readers[h]...)
			dep(m.commuters[h]...)
			m.readers[h], m.commuters[h], m.lastWriter[h] = nil, nil, id
		}
	}
	m.preds, m.succs = append(m.preds, deps), append(m.succs, nil)
	for _, d := range deps {
		m.succs[d] = append(m.succs[d], id)
	}
}

// requireModelEdges fails unless g validates and holds exactly the
// model's Succs and Preds sequences (order included) with matching
// dependency counters.
func requireModelEdges(t *testing.T, what string, g *Graph, want *edgeModel) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", what, err)
	}
	if len(g.Tasks) != len(want.preds) {
		t.Fatalf("%s: %d tasks, want %d", what, len(g.Tasks), len(want.preds))
	}
	for i, task := range g.Tasks {
		if n := len(want.preds[i]); task.ID != int64(i) || task.NumPreds() != n || int(task.remaining.Load()) != n {
			t.Fatalf("%s: task %d: id/npreds/remaining %d/%d/%d, want %d/%d/%d", what, i,
				task.ID, task.NumPreds(), task.remaining.Load(), i, n, n)
		}
		if !slices.Equal(task.Succs(), want.succs[i]) {
			t.Fatalf("%s: task %d: Succs %v, want %v", what, i, task.Succs(), want.succs[i])
		}
		if !slices.Equal(g.Preds(task), want.preds[i]) {
			t.Fatalf("%s: task %d: Preds %v, want %v", what, i, g.Preds(task), want.preds[i])
		}
	}
}

func checkScript(t *testing.T, s buildScript) {
	want := s.model()
	requireModelEdges(t, "batches, Submit and Declare", s.build(t, true), want)
	requireModelEdges(t, "Submit and Declare alone", s.build(t, false), want)
}

// TestBatchMatchesSequentialRandom is the property behind the batch
// path's contract: whatever the access pattern, and however batches,
// Submit and Declare are interleaved, the graph is edge-for-edge the
// one plain per-task edge lists would hold.
func TestBatchMatchesSequentialRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkScript(t, randomScript(seed, 1+int(seed%60), 1+int(seed%7)))
	}
}

// replayCase is a way a graph regrown after Validate can go wrong: state
// the replay must rebuild is consumed by an access after the Validate.
type replayCase int

const (
	// A read closes a commute group opened before the Validate.
	commuteClosedAcrossValidate replayCase = iota
	// A write orders after four or more readers, one admitted before the
	// Validate.
	writeAfterReadersAcrossValidate
	// A Declare targets a graph that was validated and then regrown.
	declareIntoRegrownGraph
)

// replayCases reports which replay cases the script exercises, walking it
// with each handle's readers and commute group since its last exclusive
// access, against the number of tasks submitted at the last Validate.
func (s buildScript) replayCases() map[replayCase]bool {
	seen := map[replayCase]bool{}
	readers, commuters := make([][]int, s.handles), make([][]int, s.handles)
	validatedAt, submitted, grown := -1, 0, false
	before := func(ids []int) bool { return len(ids) > 0 && ids[0] < validatedAt }
	for _, op := range s.ops {
		switch {
		case op.validate:
			validatedAt, grown = submitted, false
			continue
		case op.declare:
			if grown {
				seen[declareIntoRegrownGraph] = true
			}
			continue
		}
		for i := op.lo; i < op.hi; i++ {
			for j, h := range s.handleOf[i] {
				switch s.accesses[i][j].Mode {
				case R:
					if len(commuters[h]) > 0 {
						if before(commuters[h]) {
							seen[commuteClosedAcrossValidate] = true
						}
						readers[h], commuters[h] = nil, nil
					}
					readers[h] = append(readers[h], i)
				case Commute:
					commuters[h] = append(commuters[h], i)
				default:
					if len(readers[h]) >= 4 && before(readers[h]) {
						seen[writeAfterReadersAcrossValidate] = true
					}
					readers[h], commuters[h] = nil, nil
				}
			}
		}
		submitted = op.hi
		grown = validatedAt >= 0
	}
	return seen
}

// replaySeeds are fuzz inputs whose scripts exercise each replay case
// (TestReplaySeedsCoverTheirCases keeps them doing so).
var replaySeeds = []struct {
	seed           int64
	tasks, handles uint8
	covers         replayCase
}{
	{8, 18, 2, commuteClosedAcrossValidate},
	{3, 13, 3, writeAfterReadersAcrossValidate},
	{4, 14, 4, declareIntoRegrownGraph},
}

func FuzzBatchMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3))
	f.Add(int64(2), uint8(200), uint8(1))
	f.Add(int64(3), uint8(7), uint8(12))
	for _, c := range replaySeeds {
		f.Add(c.seed, c.tasks, c.handles)
	}
	f.Fuzz(func(t *testing.T, seed int64, tasks, handles uint8) {
		checkScript(t, randomScript(seed, 1+int(tasks), 1+int(handles)))
	})
}

// TestReplaySeedsCoverTheirCases keeps FuzzBatchMatchesSequential's seed
// corpus exercising every replay case: each seed's script must still
// contain the case it was chosen for.
func TestReplaySeedsCoverTheirCases(t *testing.T) {
	for _, c := range replaySeeds {
		if !randomScript(c.seed, 1+int(c.tasks), 1+int(c.handles)).replayCases()[c.covers] {
			t.Errorf("seed %d/%d/%d no longer exercises replay case %d", c.seed, c.tasks, c.handles, c.covers)
		}
	}
}

// TestBatchViewsAreIsolated pins the exact-capacity rule of every view
// the graph hands out: appending to one task's Accesses, Cost, Succs or
// Preds reallocates instead of writing into the next task's.
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
	// The RW chain on h1 gives task 0 and task 1 one successor each and
	// task 1 and task 2 one predecessor each, side by side in the CSRs.
	for i, task := range ts {
		if cap(task.Accesses) != len(task.Accesses) || cap(task.Cost) != len(task.Cost) ||
			cap(task.Succs()) != len(task.Succs()) || cap(g.Preds(task)) != len(g.Preds(task)) {
			t.Fatalf("task %d: a view has spare capacity", i)
		}
	}
	_ = append(ts[0].Accesses, Access{Handle: h0, Mode: W})
	_ = append(ts[0].Cost, 99)
	_ = append(ts[0].Succs(), 99)
	_ = append(g.Preds(ts[1]), 99)
	if a := ts[1].Accesses[0]; a.Handle != h0 || a.Mode != R {
		t.Fatalf("append to task 0's Accesses overwrote task 1's: %+v", a)
	}
	if ts[1].Cost[0] != 2 {
		t.Fatalf("append to task 0's Cost overwrote task 1's: %v", ts[1].Cost)
	}
	if s := ts[1].Succs(); len(s) != 1 || s[0] != 2 {
		t.Fatalf("append to task 0's Succs overwrote task 1's: %v", s)
	}
	if p := g.Preds(ts[2]); len(p) != 1 || p[0] != 1 {
		t.Fatalf("append to task 1's Preds overwrote task 2's: %v", p)
	}
	// A Submit after the batch extends the successor sequences.
	late := g.Submit(&Task{Kind: "late", Cost: []float64{1}, Accesses: []Access{{Handle: h0, Mode: W}}})
	if s := ts[0].Succs(); !slices.Equal(s, []int32{1, int32(late.ID)}) {
		t.Fatalf("task 0 successors after a late Submit: %v", s)
	}
	if s := ts[1].Succs(); !slices.Equal(s, []int32{2, int32(late.ID)}) {
		t.Fatalf("task 1 successors after a late Submit: %v", s)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
