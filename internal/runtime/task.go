// Package runtime implements a Sequential-Task-Flow (STF) task runtime in
// the style of StarPU (Augonnet et al., CCPE 2011): applications declare
// data handles, submit tasks with per-handle access modes in sequential
// order, and the runtime infers the DAG automatically from the data
// dependencies. Schedulers plug in through the Scheduler interface with
// the PUSH (task became ready) and POP (worker idle) operations described
// in Section IV-A of the paper.
//
// Two execution engines consume this package: the threaded engine in this
// package (real goroutine workers running real Go kernels) and the
// discrete-event simulator in internal/sim (virtual time, heterogeneous
// platforms, data transfers). Both drive the same scheduler
// implementations.
package runtime

import (
	"fmt"
	"math"
	"slices"

	"multiprio/internal/platform"
)

// AccessMode declares how a task accesses a data handle, following
// StarPU's STF access modes.
type AccessMode uint8

// Access modes. W is write-only (contents overwritten), RW is
// read-modify-write. For dependency inference W and RW are equivalent;
// for data transfers a W access does not require fetching the old value.
//
// Commute is StarPU's STARPU_COMMUTE combined with RW: a set of
// consecutive commutative updates to the same handle may execute in any
// order (no dependencies among themselves) but never concurrently (the
// engines serialize them with per-handle locks at execution time).
// TBFMM's P2P and L2P force accumulations are the canonical use.
const (
	R AccessMode = iota + 1
	W
	RW
	Commute
)

// String returns the conventional short name of the mode.
func (m AccessMode) String() string {
	switch m {
	case R:
		return "R"
	case W:
		return "W"
	case RW:
		return "RW"
	case Commute:
		return "RW|COMMUTE"
	default:
		return fmt.Sprintf("AccessMode(%d)", uint8(m))
	}
}

// IsWrite reports whether the mode writes the handle.
func (m AccessMode) IsWrite() bool { return m == W || m == RW || m == Commute }

// IsRead reports whether the mode reads the previous handle contents.
func (m AccessMode) IsRead() bool { return m == R || m == RW || m == Commute }

// DataHandle is a piece of application data registered with the runtime.
// Tasks access handles through Access entries; the runtime infers
// dependencies and (in the simulator) tracks replicas across memory
// nodes. Everything else about a handle is keyed by its ID, the index
// of the handle in Graph.Handles: the tasks' stored uses, the graph's
// inference state while it is open, the engines' commute locks and
// replica tables during a run.
type DataHandle struct {
	ID    int64
	Name  string
	Bytes int64
	// Home is the memory node where the data initially resides.
	Home platform.MemID
}

// Access pairs a handle with an access mode: the submission literal of
// TaskSpec. The graph stores it as a Use.
type Access struct {
	Handle *DataHandle
	Mode   AccessMode
}

// Use is one stored access of a task: the handle's ID in the graph that
// admitted the task, and the mode. A graph keeps every task's uses in
// one flat, pointer-free table (Task.Uses).
type Use struct {
	Handle int32
	Mode   AccessMode
}

// Task is one node of the application DAG. What a heuristic keys by
// type — the kind name, the per-architecture cost row and the kernel —
// lives in tables owned by the graph, which the task indexes: Kind,
// Cost and Kernel read them. The only pointer a task holds is its
// graph.
type Task struct {
	ID int64
	// Footprint buckets the task in the performance model (typically
	// the tile width or another granularity proxy).
	Footprint uint64
	// Flops is the arithmetic work, used by cost models and reporting.
	Flops float64
	// Priority is the application-provided static priority exploited by
	// the dmdas scheduler (0 when the application sets none, as in the
	// paper's TBFMM and QR_MUMPS runs).
	Priority int

	// DAG state: the graph that admitted the task and holds its edges,
	// and where its uses are in that graph's table. A run never writes
	// to a task: what it changes lives in its RunState.
	g    *Graph
	uses useRange
	// kind indexes g.kinds; row is the offset of the cost row in
	// g.costs; kernel is 1 + its index in g.kernels, 0 for none.
	kind, row, kernel int32
	// rowLen is the cost row's length, and caps its capability mask over
	// the first capsArchs architectures, computed once at submission.
	rowLen, caps uint8
	// commutes records that some access is in Commute mode, so that
	// CommuteHandles — two calls per executed task — scans only those.
	commutes bool
	// repeats records that the task names some handle more than once,
	// so that per-handle work (the simulator's pins) deduplicates only
	// for such tasks.
	repeats bool
}

// capsArchs is the number of architectures Task.caps covers; CanRun
// reads the cost row itself past them.
const capsArchs = 8

// useRange is a task's region of the graph's use table: uses[off:off+n].
type useRange struct{ off, n int32 }

// Uses returns the task's accesses as handle IDs and modes, in
// submission order (repeats included). The slice is owned by the graph;
// callers must not mutate it. g.Handles[u.Handle] is the handle.
func (t *Task) Uses() []Use {
	if t.g == nil {
		return nil
	}
	end := t.uses.off + t.uses.n
	return t.g.uses[t.uses.off:end:end]
}

// Kind returns the kernel name, the performance-model key ("" for a
// task no graph admitted).
func (t *Task) Kind() string {
	if t.g == nil {
		return ""
	}
	return t.g.kinds[t.kind]
}

// KindID returns the index of the task's kind in its graph's kind
// table (Graph.Kinds): tasks of one graph share a kind exactly when
// they share a KindID.
func (t *Task) KindID() int32 { return t.kind }

// Cost returns the task's cost row: entry a is the reference execution
// time in seconds on architecture a (speed factor 1). A zero, negative,
// NaN or missing entry means the task has no implementation for a. The
// slice is owned by the graph, and tasks with equal rows may share it;
// callers must not mutate it.
func (t *Task) Cost() []float64 {
	if t.g == nil || t.rowLen == 0 {
		return nil
	}
	end := t.row + int32(t.rowLen)
	return t.g.costs[t.row:end:end]
}

// Kernel returns the real kernel the threaded engine executes, nil when
// the task has none; the simulator never calls it.
func (t *Task) Kernel() func(w WorkerInfo) {
	if t.kernel == 0 {
		return nil
	}
	return t.g.kernels[t.kernel-1]
}

// Repeats reports whether the task names some handle more than once.
func (t *Task) Repeats() bool { return t.repeats }

// capable reports whether a cost-row entry is an implementation.
func capable(c float64) bool { return c > 0 && !math.IsNaN(c) && !math.IsInf(c, 0) }

// CanRun reports whether the task has an implementation for arch.
func (t *Task) CanRun(a platform.ArchID) bool {
	if uint(a) < capsArchs {
		return t.caps&(1<<uint(a)) != 0
	}
	if a < 0 || int(a) >= int(t.rowLen) {
		return false
	}
	return capable(t.g.costs[t.row+int32(a)])
}

// Caps returns the set of architectures below 64 the task can run on,
// as a bit set.
func (t *Task) Caps() uint64 {
	m := uint64(t.caps)
	for a := capsArchs; a < int(t.rowLen) && a < 64; a++ {
		if t.CanRun(platform.ArchID(a)) {
			m |= 1 << uint(a)
		}
	}
	return m
}

// runnable reports whether the task has an implementation for some
// architecture.
func (t *Task) runnable() bool {
	if t.caps != 0 {
		return true
	}
	for a := capsArchs; a < int(t.rowLen); a++ {
		if t.CanRun(platform.ArchID(a)) {
			return true
		}
	}
	return false
}

// BaseCost returns the reference cost of the task on arch and whether an
// implementation exists.
func (t *Task) BaseCost(a platform.ArchID) (float64, bool) {
	if !t.CanRun(a) {
		return 0, false
	}
	return t.g.costs[t.row+int32(a)], true
}

// Succs returns the IDs of the direct successors λ+(t) known so far, in
// edge-creation order. The slice is owned by the graph; callers must not
// mutate it. The first call after a Submit or Declare rebuilds the view:
// concurrent readers need Validate (every engine run starts with it).
func (t *Task) Succs() []int32 {
	g := t.g
	if g == nil {
		return nil
	}
	if !g.succOK {
		g.buildSuccs()
	}
	off, end := g.succOff[t.ID], g.succOff[t.ID+1]
	return g.succs[off:end:end]
}

// NumPreds returns |λ−(t)|, the number of direct predecessors.
func (t *Task) NumPreds() int {
	if t.g == nil {
		return 0
	}
	return int(t.g.rows[t.ID].n)
}

// WorkerInfo describes the worker invoking a scheduler or kernel.
type WorkerInfo struct {
	ID   platform.UnitID
	Arch platform.ArchID
	Mem  platform.MemID
}

// CommuteHandles appends to dst the IDs of the distinct handles the task
// accesses in Commute mode, sorted (the canonical lock order), and
// returns the extended slice. Execution engines serialize commuting
// tasks by locking these before running the kernel; they pass a scratch
// slice they own, so a call allocates nothing once it has grown.
func (t *Task) CommuteHandles(dst []int32) []int32 {
	if !t.commutes {
		return dst // no Commute access: nothing to scan for
	}
	start := len(dst)
	for _, u := range t.Uses() {
		if u.Mode == Commute && !slices.Contains(dst[start:], u.Handle) {
			dst = append(dst, u.Handle)
		}
	}
	slices.Sort(dst[start:])
	return dst
}
