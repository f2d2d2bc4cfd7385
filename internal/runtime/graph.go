package runtime

import (
	"fmt"

	"multiprio/internal/arena"
	"multiprio/internal/platform"
)

// Graph holds an application DAG built through sequential task
// submission. It is not safe for concurrent submission (the STF model is
// sequential by construction); execution engines read it concurrently
// only after submission is complete.
type Graph struct {
	Tasks   []*Task
	Handles []*DataHandle

	// preds records direct predecessors, indexed by task ID (IDs are
	// dense submission-order integers, so a slice replaces the former
	// map: Submit and NumPredsOn sit on the STF hot path). Kept out of
	// Task to avoid growing the hot struct (successors are needed on the
	// NOD hot path, predecessors only for restricted counts and critical
	// paths).
	preds [][]*Task

	// depScratch is reused across Submit calls for the per-task
	// dependency list; depEpoch stamps Task.depMark so membership is an
	// O(1) check instead of a re-scan per handle touch.
	depScratch []*Task
	depEpoch   int64

	// taskArena and handleArena back the objects created through
	// SubmitBatch and NewDataOn, so building a million-task graph costs
	// a handful of chunk allocations instead of one per object.
	// edgeArena backs every predecessor list, the successor lists of
	// batch-submitted tasks and the handles' reader/commuter lists:
	// exact-capacity views, so an append past one (Submit or Declare
	// after a batch) moves that list to the heap and never writes into
	// its neighbour.
	taskArena   arena.Arena[Task]
	handleArena arena.Arena[DataHandle]
	edgeArena   arena.Arena[*Task]

	nextTask   int64
	nextHandle int64
}

// NewGraph returns an empty application graph.
func NewGraph() *Graph {
	return &Graph{}
}

// NewGraphWithCapacity returns an empty graph presized for the given
// numbers of tasks and handles: the Tasks/Handles/preds tables and the
// backing arenas are reserved up front, so batch submission of exactly
// that volume does not reallocate. Exceeding the capacities is safe —
// the graph grows as usual past them.
func NewGraphWithCapacity(tasks, handles int) *Graph {
	g := &Graph{}
	if tasks > 0 {
		g.Tasks = make([]*Task, 0, tasks)
		g.preds = make([][]*Task, 0, tasks)
		g.taskArena.Reserve(tasks)
	}
	if handles > 0 {
		g.Handles = make([]*DataHandle, 0, handles)
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
	h.ID = g.nextHandle
	h.Name = name
	h.Bytes = bytes
	h.Home = mem
	g.nextHandle++
	g.Handles = append(g.Handles, h)
	return h
}

// TaskSpec describes one task for batch submission: the
// application-visible fields of Task, without the runtime-owned DAG and
// execution state. SubmitBatch materializes each spec into an
// arena-backed Task.
type TaskSpec struct {
	Kind      string
	Footprint uint64
	Flops     float64
	Priority  int
	Accesses  []Access
	Cost      []float64
	Run       func(w WorkerInfo)
	Tag       any
}

// SubmitBatch submits the specs in order, exactly as a sequence of
// Submit calls would, and returns the created tasks (a sub-slice of
// g.Tasks; callers must not append to it). A batch costs O(1) heap
// allocations, not O(tasks): the tasks are one arena block, every
// predecessor list is an exact-size arena view, and — because the whole
// batch is inferred before any successor is recorded — every successor
// list is carved at its final size out of one block sized by the
// counted out-degrees. Successors are then filled in submission order,
// the order a Submit loop appends them in, so task IDs, Succs and Preds
// sequences are identical to sequential submission and batch-built
// graphs schedule byte-identically.
func (g *Graph) SubmitBatch(specs []TaskSpec) []*Task {
	start := len(g.Tasks)
	if len(specs) == 0 {
		return nil
	}
	// Count the batch's reads per handle, so that a reader list grows
	// once, to the size the batch can fill.
	for i := range specs {
		for _, a := range specs[i].Accesses {
			if a.Mode == R && a.Handle != nil {
				a.Handle.batchReads++
			}
		}
	}
	block := g.taskArena.GetN(len(specs))
	base := g.nextTask
	outdeg := make([]int32, len(specs))
	edges := 0
	for i := range specs {
		s := &specs[i]
		t := &block[i]
		t.Kind = s.Kind
		t.Footprint = s.Footprint
		t.Flops = s.Flops
		t.Priority = s.Priority
		t.Accesses = s.Accesses
		t.Cost = s.Cost
		t.Run = s.Run
		t.Tag = s.Tag
		for _, d := range g.admit(t) {
			// Predecessors from before the batch keep growing by append.
			if d.ID >= base {
				outdeg[d.ID-base]++
				edges++
			}
		}
	}
	succs := g.edgeArena.GetN(edges)
	for i := range block {
		n := int(outdeg[i])
		block[i].succs = succs[:0:n]
		succs = succs[n:]
	}
	for i := range block {
		t := &block[i]
		for _, d := range g.preds[t.ID] {
			d.succs = append(d.succs, t)
		}
	}
	return g.Tasks[start:len(g.Tasks):len(g.Tasks)]
}

// Submit adds the task to the graph, inferring dependencies from the
// access modes against previously submitted tasks (the STF rule: a read
// depends on the last writer; a write depends on the last writer and all
// readers since). Task IDs are assigned by submission order.
func (g *Graph) Submit(t *Task) *Task {
	for _, d := range g.admit(t) {
		d.succs = append(d.succs, t)
	}
	return t
}

// admit gives t its ID, infers its dependencies, records them as its
// predecessor list and appends t to g.Tasks. It returns that list; the
// caller owes each member the successor edge to t.
func (g *Graph) admit(t *Task) []*Task {
	t.ID = g.nextTask
	g.nextTask++
	// deps keeps first-encounter order (a reused slice): edges must be
	// inserted in a deterministic order, because Succs/Preds order is
	// visible to the engines (successor release order) and to schedulers
	// (tie-breaks over equal timestamps). Iterating a map here made
	// identically-built graphs schedule differently run to run.
	// Deduplication is an epoch stamp on the candidate task — first
	// encounter wins, repeats are O(1) — so wide-fanout tasks (a reducer
	// reading thousands of handles) infer in O(deps), not O(deps²).
	g.depEpoch++
	epoch := g.depEpoch
	t.depMark = epoch // a task never depends on itself
	deps := g.depScratch[:0]
	dep := func(d *Task) {
		if d == nil || d.depMark == epoch {
			return
		}
		d.depMark = epoch
		deps = append(deps, d)
	}
	for _, a := range t.Accesses {
		h := a.Handle
		if h == nil {
			panic(fmt.Sprintf("runtime: task %q submitted with nil handle", t.Kind))
		}
		switch a.Mode {
		case R:
			if len(h.commuters) > 0 {
				// A read closes the open commute group: it waits for
				// every commuting updater, and later accesses order
				// against the reader (transitively against the group).
				for _, c := range h.commuters {
					dep(c)
				}
				h.commuters = h.commuters[:0]
				h.lastWriter = nil
				h.readers = h.readers[:0]
			} else {
				dep(h.lastWriter)
			}
			h.readers = g.track(h.readers, t, int(h.batchReads))
			if h.batchReads > 0 {
				h.batchReads--
			}
		case Commute:
			// Commutative update: ordered after the last exclusive
			// writer and any readers since, but NOT after fellow
			// members of the open group.
			dep(h.lastWriter)
			for _, r := range h.readers {
				dep(r)
			}
			h.commuters = g.track(h.commuters, t, 0)
		case W, RW:
			dep(h.lastWriter)
			for _, r := range h.readers {
				dep(r)
			}
			for _, c := range h.commuters {
				dep(c)
			}
			h.readers = h.readers[:0]
			h.commuters = h.commuters[:0]
			h.lastWriter = t
		default:
			panic(fmt.Sprintf("runtime: task %q has invalid access mode %d", t.Kind, a.Mode))
		}
	}
	g.depScratch = deps[:0]
	preds := g.edgeArena.GetN(len(deps))
	copy(preds, deps)
	g.preds = append(g.preds, preds)
	t.npreds = int32(len(preds))
	t.remaining.Store(t.npreds)
	g.Tasks = append(g.Tasks, t)
	return preds
}

// track appends t to a handle's reader or commuter list, growing the
// list out of the edge arena: the lists live as long as the graph, so
// the collector has nothing to reclaim from append's garbage. more is
// the number of appends known to follow (this one included): a full
// list grows by exactly that, or doubles when nothing is known.
func (g *Graph) track(list []*Task, t *Task, more int) []*Task {
	if len(list) == cap(list) {
		if more == 0 {
			more = max(4, cap(list))
		}
		grown := g.edgeArena.GetN(len(list) + more)
		list = grown[:copy(grown, list)]
	}
	return append(list, t)
}

// Declare adds an explicit dependency edge from -> to, for dependencies
// not expressible through data accesses. It must be called after both
// tasks were submitted and before the graph runs.
func (g *Graph) Declare(from, to *Task) {
	from.succs = append(from.succs, to)
	to.npreds++
	g.preds[to.ID] = append(g.preds[to.ID], from)
	to.remaining.Store(to.npreds)
}

// Preds returns the direct predecessors λ−(t).
func (g *Graph) Preds(t *Task) []*Task { return g.preds[t.ID] }

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

// Validate checks the structural sanity of the graph: positive handle
// sizes, at least one implementation per task, acyclicity (guaranteed by
// construction through submission order, verified anyway), and that
// dependency counters match edge counts.
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
		if int(t.npreds) != len(g.preds[t.ID]) {
			return fmt.Errorf("runtime: task %d pred count %d != recorded %d", t.ID, t.npreds, len(g.preds[t.ID]))
		}
		for _, s := range t.succs {
			if s.ID <= t.ID {
				return fmt.Errorf("runtime: edge %d -> %d violates submission order", t.ID, s.ID)
			}
		}
	}
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
		best := 0.0
		first := true
		for a := range t.Cost {
			if c, ok := t.BaseCost(platform.ArchID(a)); ok && (first || c < best) {
				best, first = c, false
			}
		}
		sum += best
	}
	return sum
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
		for _, p := range g.Preds(t) {
			if next == nil || p.EndAt > next.EndAt {
				next = p
			}
		}
		t = next
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
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
		c := 0.0
		first := true
		for a := range t.Cost {
			if v, ok := t.BaseCost(platform.ArchID(a)); ok && (first || v < c) {
				c, first = v, false
			}
		}
		start := longest[t.ID]
		end := start + c
		if end > best {
			best = end
		}
		for _, s := range t.succs {
			if end > longest[s.ID] {
				longest[s.ID] = end
			}
		}
	}
	return best
}
