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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

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
// nodes. Everything else about a handle is keyed by its ID: the graph's
// inference state while it is open, the engines' commute locks and
// replica tables during a run.
type DataHandle struct {
	ID    int64
	Name  string
	Bytes int64
	// Home is the memory node where the data initially resides.
	Home platform.MemID
}

// Access pairs a handle with an access mode.
type Access struct {
	Handle *DataHandle
	Mode   AccessMode
}

// Task is one node of the application DAG.
type Task struct {
	ID   int64
	Kind string // kernel name, the performance-model key
	// Footprint buckets the task in the performance model (typically
	// the tile width or another granularity proxy).
	Footprint uint64
	// Flops is the arithmetic work, used by cost models and reporting.
	Flops float64
	// Priority is the application-provided static priority exploited by
	// the dmdas scheduler (0 when the application sets none, as in the
	// paper's TBFMM and QR_MUMPS runs).
	Priority int
	Accesses []Access
	// Cost[a] is the reference execution time in seconds of this task
	// on architecture a (speed factor 1). A zero, negative, NaN or
	// missing entry means the task has no implementation for a.
	Cost []float64
	// Run is the real kernel executed by the threaded engine; the
	// simulator never calls it.
	Run func(w WorkerInfo)

	// DAG state: the graph that admitted the task and holds its edges,
	// and the dependency counters.
	g         *Graph
	npreds    int32
	remaining atomic.Int32
	claimed   atomic.Bool
	// commutes records that some access is in Commute mode, so that
	// CommuteHandles — two calls per executed task — scans only those.
	commutes bool

	// Execution record, filled by the engines (virtual or wall-clock
	// seconds since the start of the run).
	ReadyAt float64
	StartAt float64
	EndAt   float64
	RanOn   platform.UnitID
}

// CanRun reports whether the task has an implementation for arch.
func (t *Task) CanRun(a platform.ArchID) bool {
	if int(a) >= len(t.Cost) || a < 0 {
		return false
	}
	c := t.Cost[a]
	return c > 0 && !math.IsNaN(c) && !math.IsInf(c, 0)
}

// BaseCost returns the reference cost of the task on arch and whether an
// implementation exists.
func (t *Task) BaseCost(a platform.ArchID) (float64, bool) {
	if !t.CanRun(a) {
		return 0, false
	}
	return t.Cost[a], true
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
func (t *Task) NumPreds() int { return int(t.npreds) }

// NumPredsOn returns |λ−(t, P_m)| restricted to predecessors executable
// on architecture a, as used by the NOD criticality heuristic (Eq. 2).
func (t *Task) NumPredsOn(a platform.ArchID, g *Graph) int {
	n := 0
	for _, p := range g.Preds(t) {
		if g.Tasks[p].CanRun(a) {
			n++
		}
	}
	return n
}

// ReleaseDep atomically decrements the unfinished-predecessor counter
// and reports whether the task just became ready. Execution engines call
// it once per completed predecessor.
func (t *Task) ReleaseDep() bool {
	n := t.remaining.Add(-1)
	if n < 0 {
		panic(fmt.Sprintf("runtime: task %d dependency counter underflow", t.ID))
	}
	return n == 0
}

// TryClaim atomically claims the task for execution. Tasks are duplicated
// across per-memory-node priority queues; the first worker to claim wins
// and the other copies become stale (removed lazily by the schedulers).
func (t *Task) TryClaim() bool {
	return t.claimed.CompareAndSwap(false, true)
}

// Claimed reports whether some worker already claimed the task.
func (t *Task) Claimed() bool { return t.claimed.Load() }

// ResetExecState clears claim/dependency/execution state so the same
// graph can be run again (used by experiments that compare schedulers on
// one DAG). Dependency counters are rebuilt by Graph.ResetRun.
func (t *Task) ResetExecState() {
	t.claimed.Store(false)
	t.remaining.Store(t.npreds)
	t.ReadyAt, t.StartAt, t.EndAt = 0, 0, 0
	t.RanOn = 0
}

// ResetForRetry rolls the task back to the ready state after a failed
// execution attempt (fault recovery): the claim and execution stamps
// clear so a scheduler can hand it out again, while the dependency
// counter stays at zero — predecessors completed and their results are
// recoverable from the STF coherence state, so only this task re-runs.
func (t *Task) ResetForRetry() {
	t.claimed.Store(false)
	t.StartAt, t.EndAt = 0, 0
	t.RanOn = 0
}

// WorkerInfo describes the worker invoking a scheduler or kernel.
type WorkerInfo struct {
	ID   platform.UnitID
	Arch platform.ArchID
	Mem  platform.MemID
}

// CommuteHandles appends to dst the distinct handles the task accesses
// in Commute mode, sorted by handle ID (the canonical lock order), and
// returns the extended slice. Execution engines serialize commuting
// tasks by locking these before running the kernel.
func (t *Task) CommuteHandles(dst []*DataHandle) []*DataHandle {
	if t.g != nil && !t.commutes {
		return dst // submission saw no Commute access: nothing to scan for
	}
	start := len(dst)
	for _, a := range t.Accesses {
		if a.Mode != Commute {
			continue
		}
		dup := false
		for _, h := range dst[start:] {
			if h.ID == a.Handle.ID {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, a.Handle)
		}
	}
	if s := dst[start:]; len(s) > 1 {
		slices.SortFunc(s, func(a, b *DataHandle) int { return cmp.Compare(a.ID, b.ID) })
	}
	return dst
}
