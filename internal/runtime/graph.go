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
// graph holds only what a run reads. A run writes nothing of it — its
// claims, dependency counts and execution record are its RunState — so
// one validated graph serves any number of runs, in turn or at once.
// Submitting to a validated graph rebuilds the inference state first
// (replay).
type Graph struct {
	Tasks   []*Task
	Handles []*DataHandle

	// uses is every task's accesses as handle IDs (Task.Uses), each
	// task's a contiguous region in the order it was staged.
	uses []Use

	// pool holds the topology as int32 task IDs. Every task's
	// deduplicated predecessors are appended to it when the task is
	// admitted: that chronological edge log is the predecessor CSR, rows[t]
	// saying where t's row is (Declare moves a row it extends to the end).
	pool []int32
	rows []predRow
	// declared logs the edges added by Declare, in call order; they trail
	// the inferred ones in their target's row.
	declared []declaredEdge

	// succOff and succs are the successor CSR, laid out from the
	// successor counts admission keeps and filled from the edge log in one
	// stable pass (buildSuccs). A mutation clears succOK;
	// the first reader afterwards rebuilds, so a Submit loop pays for one
	// pass, not one per task.
	succOff, succs []int32
	succOK         bool

	// sub is the inference state of an open graph; validated says
	// Validate dropped it.
	sub       submission
	validated bool
	// negative and unrunnable are 1 + the ID of the first handle created
	// with a negative size and of the first task admitted without an
	// implementation, 0 for none: the errors Validate reports, recorded
	// when they are made so that it need not look for them.
	negative, unrunnable int
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
	// tasks[t] is what inference keeps of task t.
	tasks []taskInfer
}

// taskInfer is one task's inference state.
type taskInfer struct {
	// mark is 1 + the ID of the last admitted task that recorded this one
	// as a dependency: membership in the row under construction is an
	// O(1) check instead of a re-scan per handle touch.
	mark int32
	// nsucc counts the task's successors, inferred and declared: the row
	// lengths of the successor CSR, which buildSuccs lays out from them.
	nsucc int32
}

// predRow is a task's predecessor row in the edge log:
// pool[off:off+n].
type predRow struct{ off, n int32 }

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
		g.growTasks(tasks)
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
	if bytes < 0 && g.negative == 0 {
		g.negative = len(g.Handles)
	}
	return h
}

// growTasks makes room for n more tasks in the per-task tables.
func (g *Graph) growTasks(n int) {
	g.Tasks = slices.Grow(g.Tasks, n)
	g.rows = slices.Grow(g.rows, n)
	g.sub.tasks = slices.Grow(g.sub.tasks, n)
}

// TaskSpec describes one task for submission: the application-visible
// fields of Task, and its accesses as handle pointers. Submit and
// Batch.Add write it into an arena-backed Task and the accesses into the
// graph's use table, as handle IDs; the spec and its access slice may be
// reused as soon as they return.
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
	uses := 0
	for i := range specs {
		uses += len(specs[i].Accesses)
	}
	b.Reserve(uses, 0, 0)
	for i := range specs {
		b.Add(specs[i])
	}
	return b.Submit()
}

// Submit adds a task to the graph, inferring dependencies from the
// access modes against previously submitted tasks (the STF rule: a read
// depends on the last writer; a write depends on the last writer and all
// readers since), and returns it. Task IDs are assigned by submission
// order.
func (g *Graph) Submit(s TaskSpec) *Task {
	t := g.newTask(s)
	g.admit(t)
	return t
}

// newTask writes s into an arena Task and its accesses into the use
// table, as handle IDs. It panics on a nil handle and on a handle that
// is not this graph's: inference and the engines key everything by the
// ID, so another graph's handle with an ID in range would pass for one
// of this graph's.
func (g *Graph) newTask(s TaskSpec) *Task {
	t := g.taskArena.Get()
	*t = Task{Kind: s.Kind, Footprint: s.Footprint, Flops: s.Flops, Priority: s.Priority,
		Cost: s.Cost, Run: s.Run}
	if len(g.uses)+len(s.Accesses) > math.MaxInt32 {
		panic("runtime: graph uses exceed 2^31 entries")
	}
	t.uses = useRange{int32(len(g.uses)), int32(len(s.Accesses))}
	uses := g.uses
	for _, a := range s.Accesses {
		h := a.Handle
		if h == nil {
			panic(fmt.Sprintf("runtime: task %q submitted with nil handle", s.Kind))
		}
		if uint64(h.ID) >= uint64(len(g.Handles)) || g.Handles[h.ID] != h {
			panic(fmt.Sprintf("runtime: task %q accesses handle %q, not registered with this graph", s.Kind, h.Name))
		}
		uses = append(uses, Use{Handle: int32(h.ID), Mode: a.Mode})
		t.commutes = t.commutes || a.Mode == Commute
	}
	g.uses = uses
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
// the last admit left. The successor counts are the row lengths of the
// successor CSR, which a validated graph has up to date.
func (g *Graph) replay() {
	g.validated = false
	s := &g.sub
	s.handles = make([]handleState, len(g.Handles))
	s.tasks = make([]taskInfer, len(g.Tasks))
	var row []int32
	for i, t := range g.Tasks {
		s.tasks[i] = taskInfer{mark: int32(i) + 1, nsucc: g.succOff[i+1] - g.succOff[i]}
		row = s.infer(t, int32(i), row[:0])
	}
}

// admit gives t its ID, infers its dependencies straight onto the end of
// the edge log as its predecessor row, counts them as their sources'
// successors and appends t to g.Tasks.
func (g *Graph) admit(t *Task) {
	s := g.open()
	id := int32(len(g.Tasks))
	t.ID = int64(id)
	t.g = g
	s.tasks = append(s.tasks, taskInfer{mark: id + 1}) // a task never depends on itself
	start := g.end()
	g.pool = s.infer(t, id, g.pool)
	row := g.pool[start:]
	for _, p := range row {
		s.tasks[p].nsucc++
	}
	g.rows = append(g.rows, predRow{start, int32(len(row))})
	g.Tasks = append(g.Tasks, t)
	if g.unrunnable == 0 && !t.runnable() {
		g.unrunnable = len(g.Tasks)
	}
	g.succOK = false
	g.commutes = g.commutes || t.commutes
}

// infer applies the uses of t, task id, to the STF state in order and
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
			if d >= 0 && s.tasks[d].mark != stamp { // -1: no last writer
				s.tasks[d].mark = stamp
				row = append(row, d)
			}
		}
	}
	for _, u := range t.Uses() {
		h := &s.handles[u.Handle]
		switch u.Mode {
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
			panic(fmt.Sprintf("runtime: task %q has invalid access mode %d", t.Kind, u.Mode))
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
	s := g.open()
	// The row grows in place only at the end of the log; one further in
	// moves there first.
	r := &g.rows[to.ID]
	if int(r.off)+len(row) != len(g.pool) {
		r.off = g.end()
		g.pool = append(g.pool, row...)
	}
	g.pool = append(g.pool, int32(from.ID))
	r.n++
	s.tasks[from.ID].nsucc++
	g.declared = append(g.declared, declaredEdge{int32(from.ID), int32(to.ID), int32(len(g.Tasks))})
	g.succOK = false
}

// Preds returns the IDs of the direct predecessors λ−(t), inferred ones
// first, each group in creation order. The slice is owned by the graph;
// callers must not mutate it.
func (g *Graph) Preds(t *Task) []int32 {
	r := g.rows[t.ID]
	return g.pool[r.off : r.off+r.n : r.off+r.n]
}

// buildSuccs derives the successor CSR from the edge log: a counting
// sort of the edges by source that keeps creation order, so Succs(t)
// lists t's successors in the order the edges were made — inferred edges
// when their target was submitted, declared ones when Declare was called.
// The counts are the ones admit and Declare kept, so it is a prefix sum
// and one placement pass over the rows.
func (g *Graph) buildSuccs() {
	n := len(g.rows)
	// off[p+1] is where p's next successor goes and, once filled, where
	// p+1's begin.
	off := slices.Grow(g.succOff[:0], n+2)[:n+2]
	off[0], off[1] = 0, 0
	for p, t := range g.sub.tasks {
		off[p+2] = off[p+1] + t.nsucc
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
	for i, r := range g.rows {
		row := g.pool[r.off : r.off+r.n]
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
	for i, r := range g.rows {
		if r.n == 0 {
			dst = append(dst, g.Tasks[i])
		}
	}
	return dst
}

// Validate checks the structural sanity of the graph: non-negative handle
// sizes (the first offender is reported) and at least one implementation
// per task (the lowest ID is reported), both recorded as the graph was
// built, the handle error first. Acyclicity holds by construction: an
// inferred edge comes from an earlier task, and Declare refuses any
// other. Validate also brings the successor view up to date, so a
// validated graph is safe for concurrent readers, and drops the
// submission state: the next Submit or Batch.Add (SubmitBatch included)
// rebuilds it. On a graph already validated and unchanged since, it
// returns without writing: every run calls it, and runs share the graph.
// A graph that concurrent runs share must therefore be validated before
// the first of them starts; otherwise each run's first Validate writes
// it while the others read it. A handle created with a negative size
// after that is still reported.
func (g *Graph) Validate() error {
	if g.negative > 0 {
		return fmt.Errorf("runtime: handle %q has negative size", g.Handles[g.negative-1].Name)
	}
	if g.unrunnable > 0 {
		t := g.Tasks[g.unrunnable-1]
		return fmt.Errorf("runtime: task %d (%s) has no implementation", t.ID, t.Kind)
	}
	if g.validated && g.succOK {
		return nil
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
// makespan (the red-bordered tasks of the paper's Fig. 4). st is the
// run's state (Result.Tasks; nil for no run, which has no path); the
// returned slice is ordered from first to last task.
func PracticalCriticalPath(g *Graph, st RunState) []*Task {
	if st == nil {
		return nil
	}
	var last *Task
	for _, t := range g.Tasks {
		if end := st[t.ID].EndAt; end > 0 && (last == nil || end > st[last.ID].EndAt) {
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
			if p := g.Tasks[id]; next == nil || st[p.ID].EndAt > st[next.ID].EndAt {
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
