package runtime

import (
	"fmt"
	"sync/atomic"

	"multiprio/internal/platform"
)

// TaskState is one task's entry in a run's RunState: its claim, its
// released dependencies and its execution record — the stamps of the
// attempt that committed, in seconds since the run began (virtual or
// wall-clock).
type TaskState struct {
	ReadyAt float64
	StartAt float64
	EndAt   float64
	RanOn   platform.UnitID
	// released counts the predecessors that completed: the task is ready
	// when it reaches its predecessor count, so zeroed memory is the
	// state before a run.
	released int32
	// claimed is atomic, because workers claim in Pop, which the threaded
	// engine makes concurrently; the run core writes everything else,
	// serialized.
	claimed atomic.Bool
}

// Claimed reports whether a worker holds the task's claim. A retry or a
// speculative replica clears it, so that the copy it pushes can be
// popped: after a run with speculation, a task whose replica was still
// queued when it committed reads unclaimed.
func (s *TaskState) Claimed() bool { return s.claimed.Load() }

// RunState is the state of one run, one TaskState per task, indexed by
// task ID. NewEnv allocates it zeroed, the run core writes it and the
// Result hands it back. A run writes nothing else of its graph, so one
// validated graph serves any number of runs, in turn or at once.
type RunState []TaskState

// release counts one completed predecessor of task id, which has npreds,
// and reports whether it was the last. The run core calls it serialized,
// like every lifecycle call.
func (s RunState) release(id, npreds int32) bool {
	st := &s[id]
	st.released++
	if st.released > npreds {
		panic(fmt.Sprintf("runtime: task %d released more dependencies than it has", id))
	}
	return st.released == npreds
}

// unclaim rolls t back to claimable after an attempt that will not
// commit: a retry or a replica is about to push it again.
func (s RunState) unclaim(t *Task) { s[t.ID].claimed.Store(false) }
