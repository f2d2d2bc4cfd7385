// Package prio implements StarPU's "prio" scheduling policy: a single
// central queue ordered by the application-provided task priority
// (FIFO within equal priorities), consumed by every worker. It is
// eager's priority-aware sibling: no performance models, no
// heterogeneity awareness — only the user's static priorities.
package prio

import (
	"sync"

	"multiprio/internal/heap"
	"multiprio/internal/runtime"
)

// Sched is the prio policy. Create with New.
type Sched struct {
	mu  sync.Mutex
	env *runtime.Env
	h   *heap.Heap
	seq int64
	// top is the reused buffer of Pop's prefix scan.
	top []int64
}

// New returns a prio scheduler.
func New() *Sched { return &Sched{} }

// Name implements runtime.Scheduler.
func (s *Sched) Name() string { return "prio" }

// Init implements runtime.Scheduler.
func (s *Sched) Init(env *runtime.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env = env
	s.h = heap.New(256)
	s.seq = 0
}

// Push implements runtime.Scheduler: priority descending, FIFO within
// ties (the secondary key decreases with submission order).
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.h.Push(t.ID, heap.Score{
		Primary:   float64(t.Priority),
		Secondary: -float64(s.seq),
	})
}

// Pop implements runtime.Scheduler: the highest-priority task the
// worker can run, scanning past incompatible heads.
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Scan a bounded prefix for a runnable task; the heap rarely holds
	// long runs of incompatible tasks in practice.
	const scan = 64
	s.top = s.h.TopN(s.top[:0], scan)
	for _, id := range s.top {
		// Heap ids are task IDs, the index into the graph's task table.
		t := s.env.Graph.Tasks[id]
		if !t.CanRun(w.Arch) || !s.env.TryClaim(t) {
			continue
		}
		s.h.Remove(id)
		return t
	}
	return nil
}

// TaskDone implements runtime.Scheduler.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}
