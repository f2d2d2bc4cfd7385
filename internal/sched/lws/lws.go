// Package lws implements locality work stealing, the resource-centric
// baseline mentioned in Section II: each worker owns a deque, pushes
// released tasks to the deque of the worker that released them, pops
// LIFO locally, and steals FIFO from the nearest victim — preferring
// workers on the same memory node before crossing nodes.
//
// The paper excludes LWS from its headline comparison because it treats
// CPUs and GPUs as identical resources; it is implemented here as the
// resource-centric reference point for the ablation benches.
package lws

import (
	"fmt"
	"sync"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Sched is the locality work-stealing policy.
type Sched struct {
	mu     sync.Mutex
	env    *runtime.Env
	deques [][]*runtime.Task
	rr     int // round-robin cursor for root tasks
	// victims[w] is the steal order for worker w: same memory node
	// first, then the rest by unit distance.
	victims [][]platform.UnitID
}

// New returns an LWS scheduler.
func New() *Sched { return &Sched{} }

// Name implements runtime.Scheduler.
func (s *Sched) Name() string { return "lws" }

// Init implements runtime.Scheduler.
func (s *Sched) Init(env *runtime.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env = env
	n := len(env.Machine.Units)
	s.deques = make([][]*runtime.Task, n)
	s.rr = 0
	s.victims = make([][]platform.UnitID, n)
	for w := 0; w < n; w++ {
		var near, far []platform.UnitID
		for v := 0; v < n; v++ {
			if v == w {
				continue
			}
			if env.Machine.Units[v].Mem == env.Machine.Units[w].Mem {
				near = append(near, platform.UnitID(v))
			} else {
				far = append(far, platform.UnitID(v))
			}
		}
		s.victims[w] = append(near, far...)
	}
}

// Push implements runtime.Scheduler: the task lands on the deque of the
// worker that released it (the predecessor that finished last); root
// tasks are spread round-robin.
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owner := -1
	var latest float64 = -1
	for _, id := range s.env.Graph.Preds(t) {
		p := s.env.Graph.Tasks[id]
		// Under the two-level cluster distributor this instance sees one
		// node of a larger machine: a predecessor that ran on another
		// node's worker owns no deque here, so the task is spread like a
		// root.
		end := s.env.EndAt(p)
		if u, here := s.env.RanOn(p); here && end > latest {
			latest, owner = end, int(u)
		}
	}
	if owner < 0 {
		owner = s.rr % len(s.deques)
		s.rr++
	}
	s.deques[owner] = append(s.deques[owner], t)
}

// Pop implements runtime.Scheduler: LIFO from the own deque, then FIFO
// steal from the victim list.
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.take(int(w.ID), w.Arch, true); t != nil {
		return t
	}
	for _, v := range s.victims[w.ID] {
		if t := s.take(int(v), w.Arch, false); t != nil {
			return t
		}
	}
	return nil
}

// take scans one deque for a runnable task: from the back when lifo
// (owner), from the front otherwise (thief).
func (s *Sched) take(w int, arch platform.ArchID, lifo bool) *runtime.Task {
	dq := s.deques[w]
	for n := len(dq); n > 0; n = len(dq) {
		var i int
		if lifo {
			i = n - 1
		}
		t := dq[i]
		if s.env.Claimed(t) {
			dq = append(dq[:i], dq[i+1:]...)
			s.deques[w] = dq
			continue
		}
		if !t.CanRun(arch) {
			// Scan inward for the nearest runnable task.
			found := -1
			if lifo {
				for j := n - 1; j >= 0; j-- {
					if !s.env.Claimed(dq[j]) && dq[j].CanRun(arch) {
						found = j
						break
					}
				}
			} else {
				for j := 0; j < n; j++ {
					if !s.env.Claimed(dq[j]) && dq[j].CanRun(arch) {
						found = j
						break
					}
				}
			}
			if found < 0 {
				return nil
			}
			i = found
			t = dq[i]
		}
		if !s.env.TryClaim(t) {
			panic(fmt.Sprintf("lws: task %d claimed twice", t.ID))
		}
		s.deques[w] = append(dq[:i], dq[i+1:]...)
		return t
	}
	return nil
}

// TaskDone implements runtime.Scheduler.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}
