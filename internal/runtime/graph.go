package runtime

import (
	"fmt"
	"math"
	"slices"

	"multiprio/internal/arena"
	"multiprio/internal/platform"
)

// Graph holds an application DAG built through sequential task
// submission. It is not safe for concurrent submission (the STF model is
// sequential by construction); execution engines read it concurrently
// only after submission is complete.
//
// A graph is open while tasks are being submitted and validated after
// Validate, which every engine run starts with. An open graph carries the
// STF inference state (submission); Validate drops it, so a validated
// graph holds only what a run reads. Submitting to a validated graph
// rebuilds that state first (replay).
type Graph struct {
	Tasks   []*Task
	Handles []*DataHandle

	// pool holds the topology as int32 task IDs. Every task's
	// deduplicated predecessors are appended to it when the task is
	// admitted: that chronological edge log is the predecessor CSR, row t
	// being pool[predOff[t]:][:t.npreds] (Declare moves a row it extends
	// to the end).
	pool    []int32
	predOff []int32
	// declared logs the edges added by Declare, in call order; they trail
	// the inferred ones in their target's row.
	declared []declaredEdge

	// succOff and succs are the successor CSR, derived from the edge log
	// by one stable counting pass (buildSuccs). A mutation clears succOK;
	// the first reader afterwards rebuilds, so a Submit loop pays for one
	// pass, not one per task.
	succOff, succs []int32
	succOK         bool

	// sub is the inference state of an open graph; validated says
	// Validate dropped it.
	sub       submission
	validated bool
	// commutes records that some task accesses a handle in Commute mode:
	// only then does a threaded run need its commute locks.
	commutes bool

	// taskArena and handleArena back the objects created through
	// Batch.Add and NewDataOn, so building a million-task graph costs a
	// handful of chunk allocations instead of one per object.
	taskArena   arena.Arena[Task]
	handleArena arena.Arena[DataHandle]
}

// submission is what inferring the DAG from the access sequence needs
// and a run does not: per-handle STF state, the handles' reader and
// commuter lists, and the deduplication stamps.
type submission struct {
	// handles[h] is the STF state of handle h.
	handles []handleState
	// lists holds the reader and commuter lists (idList regions). A full
	// list moves to the end: the lists live as long as the submission, so
	// the collector has nothing to reclaim from append's garbage.
	lists []int32
	// mark[d] is 1 + the ID of the last admitted task that recorded d as
	// a dependency: membership in the row under construction is an O(1)
	// check instead of a re-scan per handle touch.
	mark []int32
}

// handleState is one handle's STF state, as task IDs.
type handleState struct {
	// lastWriter is 1 + the last exclusive writer's ID, 0 for none.
	lastWriter int32
	// batchReads counts the R accesses of staged Batch tasks that
	// inference has not reached yet; it sizes readers' next growth.
	batchReads int32
	readers    idList
	// commuters is the open group of commutative updaters since the last
	// exclusive access; they don't depend on one another, and the next
	// non-commute access depends on all of them.
	commuters idList
}

// declaredEdge is one Declare call: the edge and the number of tasks
// submitted when it was made, its place in every successor sequence.
type declaredEdge struct{ from, to, at int32 }

// idList is a growable list of task IDs in submission.lists.
type idList struct{ off, n, cap int32 }

// NewGraph returns an empty application graph.
func NewGraph() *Graph {
	return &Graph{}
}

// NewGraphWithCapacity returns an empty graph presized for the given
// numbers of tasks and handles: the per-task and per-handle tables and
// the backing arenas are reserved up front, so batch submission of
// exactly that volume does not reallocate. Exceeding the capacities is
// safe — the graph grows as usual past them.
func NewGraphWithCapacity(tasks, handles int) *Graph {
	g := &Graph{}
	if tasks > 0 {
		g.Tasks = make([]*Task, 0, tasks)
		g.predOff = make([]int32, 0, tasks)
		g.sub.mark = make([]int32, 0, tasks)
		g.taskArena.Reserve(tasks)
	}
	if handles > 0 {
		g.Handles = make([]*DataHandle, 0, handles)
		g.sub.handles = make([]handleState, 0, handles)
		g.handleArena.Reserve(handles)
	}
	return g
}

// NewData registers a data handle of the given size residing on the main
// RAM node.
func (g *Graph) NewData(name string, bytes int64) *DataHandle {
	return g.NewDataOn(name, bytes, platform.MemRAM)
}

// NewDataOn registers a data handle residing initially on mem.
func (g *Graph) NewDataOn(name string, bytes int64, mem platform.MemID) *DataHandle {
	h := g.handleArena.Get()
	h.ID = int64(len(g.Handles))
	h.Name = name
	h.Bytes = bytes
	h.Home = mem
	g.Handles = append(g.Handles, h)
	if !g.validated {
		g.sub.handles = append(g.sub.handles, handleState{})
	}
	return h
}

// TaskSpec describes one task for batch submission: the
// application-visible fields of Task, without the runtime-owned DAG and
// execution state. Batch.Add writes it into an arena-backed Task.
type TaskSpec struct {
	Kind      string
	Footprint uint64
	Flops     float64
	Priority  int
	Accesses  []Access
	Cost      []float64
	Run       func(w WorkerInfo)
}

// SubmitBatch submits the specs in order through a Batch and returns the
// created tasks (a sub-slice of g.Tasks; callers must not append to it).
func (g *Graph) SubmitBatch(specs []TaskSpec) []*Task {
	b := g.NewBatch(len(specs))
	for i := range specs {
		b.Add(specs[i])
	}
	return b.Submit()
}

// Submit adds the task to the graph, inferring dependencies from the
// access modes against previously submitted tasks (the STF rule: a read
// depends on the last writer; a write depends on the last writer and all
// readers since). Task IDs are assigned by submission order.
func (g *Graph) Submit(t *Task) *Task {
	g.admit(t)
	return t
}

// end returns the offset the next pool entry will have.
func (g *Graph) end() int32 { return offset(g.pool) }

// offset returns len(pool) as an int32 offset.
func offset(pool []int32) int32 {
	if len(pool) > math.MaxInt32 {
		panic("runtime: graph topology exceeds 2^31 entries")
	}
	return int32(len(pool))
}

// open returns the submission state, rebuilding it first when Validate
// dropped it.
func (g *Graph) open() *submission {
	if g.validated {
		g.replay()
	}
	return &g.sub
}

// replay rebuilds the submission state of a validated graph by inferring
// every task's accesses again, in ID order, into a throwaway row: the STF
// state is a function of the access sequence alone, so this is the state
// the last admit left.
func (g *Graph) replay() {
	g.validated = false
	s := &g.sub
	s.handles = make([]handleState, len(g.Handles))
	s.mark = make([]int32, 0, len(g.Tasks))
	var row []int32
	for _, t := range g.Tasks {
		id := int32(t.ID)
		s.mark = append(s.mark, id+1)
		row = s.infer(t, id, row[:0])
	}
}

// admit gives t its ID, infers its dependencies straight onto the end of
// the edge log as its predecessor row and appends t to g.Tasks.
func (g *Graph) admit(t *Task) {
	s := g.open()
	id := int32(len(g.Tasks))
	t.ID = int64(id)
	t.g = g
	s.mark = append(s.mark, id+1) // a task never depends on itself
	start := g.end()
	g.predOff = append(g.predOff, start)
	g.pool = s.infer(t, id, g.pool)
	t.npreds = g.end() - start
	t.remaining.Store(t.npreds)
	g.Tasks = append(g.Tasks, t)
	g.succOK = false
	g.commutes = g.commutes || t.commutes
}

// infer applies the accesses of t, task id, to the STF state in order and
// appends t's dependencies to row.
func (s *submission) infer(t *Task, id int32, row []int32) []int32 {
	// The row keeps first-encounter order: edges must be inserted in a
	// deterministic order, because Succs/Preds order is visible to the
	// engines (successor release order) and to schedulers (tie-breaks over
	// equal timestamps). Iterating a map here made identically-built
	// graphs schedule differently run to run. Deduplication is a stamp on
	// the candidate task — first encounter wins, repeats are O(1) — so
	// wide-fanout tasks (a reducer reading thousands of handles) infer in
	// O(deps), not O(deps²).
	stamp := id + 1
	dep := func(ds ...int32) {
		for _, d := range ds {
			if d >= 0 && s.mark[d] != stamp { // -1: no last writer
				s.mark[d] = stamp
				row = append(row, d)
			}
		}
	}
	for _, a := range t.Accesses {
		if a.Handle == nil {
			panic(fmt.Sprintf("runtime: task %q submitted with nil handle", t.Kind))
		}
		if uint64(a.Handle.ID) >= uint64(len(s.handles)) {
			panic(fmt.Sprintf("runtime: task %q accesses handle %q, not registered with this graph", t.Kind, a.Handle.Name))
		}
		h := &s.handles[a.Handle.ID]
		switch a.Mode {
		case R:
			if h.commuters.n > 0 {
				// A read closes the open commute group: it waits for
				// every commuting updater, and later accesses order
				// against the reader (transitively against the group).
				dep(s.ids(h.commuters)...)
				h.commuters.n, h.readers.n = 0, 0
				h.lastWriter = 0
			} else {
				dep(h.lastWriter - 1)
			}
			s.track(&h.readers, id, int(h.batchReads))
			if h.batchReads > 0 {
				h.batchReads--
			}
		case Commute:
			// Commutative update: ordered after the last exclusive
			// writer and any readers since, but NOT after fellow
			// members of the open group.
			t.commutes = true
			dep(h.lastWriter - 1)
			dep(s.ids(h.readers)...)
			s.track(&h.commuters, id, 0)
		case W, RW:
			dep(h.lastWriter - 1)
			dep(s.ids(h.readers)...)
			dep(s.ids(h.commuters)...)
			h.readers.n, h.commuters.n = 0, 0
			h.lastWriter = id + 1
		default:
			panic(fmt.Sprintf("runtime: task %q has invalid access mode %d", t.Kind, a.Mode))
		}
	}
	return row
}

// ids returns the task IDs in l.
func (s *submission) ids(l idList) []int32 { return s.lists[l.off : l.off+l.n] }

// track appends id to a handle's reader or commuter list. more is the
// number of appends known to follow (this one included): a full list
// grows by exactly that, or doubles when nothing is known.
func (s *submission) track(l *idList, id int32, more int) {
	if l.n == l.cap {
		if more == 0 {
			more = max(4, int(l.cap))
		}
		end := offset(s.lists)
		s.lists = append(append(s.lists, s.ids(*l)...), make([]int32, more)...)
		l.off, l.cap = end, l.n+int32(more)
	}
	s.lists[l.off+l.n] = id
	l.n++
}

// Declare adds an explicit dependency edge from -> to, for dependencies
// not expressible through data accesses. Both tasks must have been
// submitted to g, from before to; it must be called before the graph
// runs. An edge the graph already has is left alone.
func (g *Graph) Declare(from, to *Task) {
	if from == nil || to == nil || from.g != g || to.g != g {
		panic("runtime: Declare on a task not submitted to this graph")
	}
	if from.ID >= to.ID {
		panic(fmt.Sprintf("runtime: Declare %d -> %d violates submission order", from.ID, to.ID))
	}
	row := g.Preds(to)
	if slices.Contains(row, int32(from.ID)) {
		return
	}
	// The row grows in place only at the end of the log; one further in
	// moves there first.
	if int(g.predOff[to.ID])+len(row) != len(g.pool) {
		g.predOff[to.ID] = g.end()
		g.pool = append(g.pool, row...)
	}
	g.pool = append(g.pool, int32(from.ID))
	to.npreds++
	to.remaining.Store(to.npreds)
	g.declared = append(g.declared, declaredEdge{int32(from.ID), int32(to.ID), int32(len(g.Tasks))})
	g.succOK = false
}

// Preds returns the IDs of the direct predecessors λ−(t), inferred ones
// first, each group in creation order. The slice is owned by the graph;
// callers must not mutate it.
func (g *Graph) Preds(t *Task) []int32 {
	off := int(g.predOff[t.ID])
	end := off + int(t.npreds)
	return g.pool[off:end:end]
}

// buildSuccs derives the successor CSR from the edge log: a counting
// sort of the edges by source that keeps creation order, so Succs(t)
// lists t's successors in the order the edges were made — inferred edges
// when their target was submitted, declared ones when Declare was called.
func (g *Graph) buildSuccs() {
	n := len(g.Tasks)
	// Counted at off[p+2], so after the prefix sum off[p+1] is where p's
	// next successor goes and, once filled, where p+1's begin.
	off := slices.Grow(g.succOff[:0], n+2)[:n+2]
	clear(off)
	for _, t := range g.Tasks {
		for _, p := range g.Preds(t) {
			off[p+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	succs := slices.Grow(g.succs[:0], int(off[n+1]))[:off[n+1]]
	place := func(from, to int32) {
		succs[off[from+1]] = to
		off[from+1]++
	}
	// The declared edges that end each row are placed from the log, at
	// their own time; declaredInto says how many to leave out of a row.
	var declaredInto []int32
	if len(g.declared) > 0 {
		declaredInto = make([]int32, n)
		for _, e := range g.declared {
			declaredInto[e.to]++
		}
	}
	log := g.declared
	for i, t := range g.Tasks {
		row := g.Preds(t)
		if declaredInto != nil {
			for ; len(log) > 0 && int(log[0].at) <= i; log = log[1:] {
				place(log[0].from, log[0].to)
			}
			row = row[:len(row)-int(declaredInto[i])]
		}
		for _, p := range row {
			place(p, int32(i))
		}
	}
	for _, e := range log {
		place(e.from, e.to)
	}
	g.succOff, g.succs, g.succOK = off[:n+1], succs, true
}

// Roots appends to dst the tasks with no predecessors (ready at time 0)
// and returns the extended slice.
func (g *Graph) Roots(dst []*Task) []*Task {
	for _, t := range g.Tasks {
		if t.npreds == 0 {
			dst = append(dst, t)
		}
	}
	return dst
}

// ResetRun restores all tasks to their pre-execution state so the graph
// can be executed again (scheduler comparisons reuse one DAG).
func (g *Graph) ResetRun() {
	for _, t := range g.Tasks {
		t.ResetExecState()
	}
}

// Validate checks the structural sanity of the graph: non-negative handle
// sizes, at least one implementation per task and acyclicity (guaranteed
// by construction through submission order, verified anyway). It also
// brings the successor view up to date, so a validated graph is safe for
// concurrent readers, and drops the submission state: the next Submit or
// Batch.Add (SubmitBatch included) rebuilds it.
func (g *Graph) Validate() error {
	for _, h := range g.Handles {
		if h.Bytes < 0 {
			return fmt.Errorf("runtime: handle %q has negative size", h.Name)
		}
	}
	for _, t := range g.Tasks {
		any := false
		for a := range t.Cost {
			if t.CanRun(platform.ArchID(a)) {
				any = true
			}
		}
		if !any {
			return fmt.Errorf("runtime: task %d (%s) has no implementation", t.ID, t.Kind)
		}
		for _, p := range g.Preds(t) {
			if int64(p) >= t.ID {
				return fmt.Errorf("runtime: edge %d -> %d violates submission order", p, t.ID)
			}
		}
	}
	if !g.succOK {
		g.buildSuccs()
	}
	g.sub, g.validated = submission{}, true
	return nil
}

// TotalFlops sums the Flops of all tasks.
func (g *Graph) TotalFlops() float64 {
	var sum float64
	for _, t := range g.Tasks {
		sum += t.Flops
	}
	return sum
}

// SerialTime returns the sum over tasks of the best per-arch cost: the
// runtime of the DAG on a single ideal worker of each task's best
// architecture. It is a convenient lower-bound-ish reference for
// speedup reporting.
func (g *Graph) SerialTime() float64 {
	var sum float64
	for _, t := range g.Tasks {
		sum += minCost(t)
	}
	return sum
}

// minCost returns t's cost on its best architecture: the least over the
// architectures that implement it, 0 when none does.
func minCost(t *Task) float64 {
	best, first := 0.0, true
	for a := range t.Cost {
		if c, ok := t.BaseCost(platform.ArchID(a)); ok && (first || c < best) {
			best, first = c, false
		}
	}
	return best
}

// BottomLevels returns every task's bottom level, indexed by task ID: the
// longest path from the task to a DAG exit, the task included, each task
// weighing its best per-architecture cost. Task IDs are a topological
// order (STF submission order), so one reverse sweep over the successor
// CSR sees every successor before its predecessors.
func (g *Graph) BottomLevels() []float64 {
	if !g.succOK {
		g.buildSuccs()
	}
	bl := make([]float64, len(g.Tasks))
	for i := len(bl) - 1; i >= 0; i-- {
		maxSucc := 0.0
		for _, s := range g.succs[g.succOff[i]:g.succOff[i+1]] {
			if bl[s] > maxSucc {
				maxSucc = bl[s]
			}
		}
		bl[i] = minCost(g.Tasks[i]) + maxSucc
	}
	return bl
}

// PracticalCriticalPath walks the executed DAG backwards from the task
// that finished last, at each step following the predecessor that
// finished latest — the chain of tasks that actually determined the
// makespan (the red-bordered tasks of the paper's Fig. 4). The returned
// slice is ordered from first to last task.
func PracticalCriticalPath(g *Graph) []*Task {
	var last *Task
	for _, t := range g.Tasks {
		if t.EndAt > 0 && (last == nil || t.EndAt > last.EndAt) {
			last = t
		}
	}
	if last == nil {
		return nil
	}
	var path []*Task
	for t := last; t != nil; {
		path = append(path, t)
		var next *Task
		for _, id := range g.Preds(t) {
			if p := g.Tasks[id]; next == nil || p.EndAt > next.EndAt {
				next = p
			}
		}
		t = next
	}
	slices.Reverse(path)
	return path
}

// CriticalPathTime returns the length of the longest path through the
// DAG using each task's best per-arch cost: the ideal makespan with
// infinite resources.
func (g *Graph) CriticalPathTime() float64 {
	longest := make([]float64, len(g.Tasks))
	var best float64
	// Tasks are topologically ordered by ID (submission order).
	for _, t := range g.Tasks {
		end := longest[t.ID] + minCost(t)
		if end > best {
			best = end
		}
		for _, s := range t.Succs() {
			if end > longest[s] {
				longest[s] = end
			}
		}
	}
	return best
}
