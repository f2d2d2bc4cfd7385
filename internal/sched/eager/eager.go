// Package eager implements StarPU's simplest scheduling policy: one
// central FIFO shared by all workers. It ignores heterogeneity entirely
// and serves as the floor baseline in ablation studies.
//
// The FIFO is stored as one sub-queue per capability class (the set of
// architectures a task can run on, a static property of its cost
// vector). Pop takes the oldest unclaimed head among the classes the
// worker's architecture appears in — the same task the seed's linear
// scan over one shared slice returned, found in O(classes) instead of
// O(queue): a worker no longer re-scans every task it cannot run on
// each wake-up, which dominated pop cost on large mixed-affinity DAGs.
package eager

import (
	"sync"

	"multiprio/internal/runtime"
)

// entry is one queued task stamped with its global arrival order.
type entry struct {
	seq uint64
	t   *runtime.Task
}

// class is the FIFO of one capability mask. head indexes the oldest
// live entry; popped and claimed-elsewhere entries are nilled in place
// and the slice is recycled once drained. A full slice at least half
// consumed slides its live entries to the front instead of growing, so
// its length follows the live entries, not the pushes since the last
// drain (which a threaded run's timing decides).
type class struct {
	mask uint64
	head int
	q    []entry
}

// Sched is the eager policy. The zero value is ready after Init.
type Sched struct {
	mu      sync.Mutex
	env     *runtime.Env
	seq     uint64
	classes []class // one per distinct capability mask, few in practice
}

// New returns an eager scheduler.
func New() *Sched { return &Sched{} }

// Name implements runtime.Scheduler.
func (s *Sched) Name() string { return "eager" }

// Init implements runtime.Scheduler. The run admits every root in one
// burst before its first Pop, which on most graphs is a class's peak, so
// each class of a root is sized for its roots here once instead of
// doubling up from empty; a class only later tasks open starts empty.
func (s *Sched) Init(env *runtime.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env = env
	s.seq = 0
	s.classes = s.classes[:0]
	// Root counts by class index; a graph has few classes.
	var counts [4]int
	roots := counts[:0]
	for _, t := range env.Graph.Tasks {
		if t.NumPreds() == 0 {
			i := s.class(t.Caps())
			if i == len(roots) {
				roots = append(roots, 0)
			}
			roots[i]++
		}
	}
	for i, n := range roots {
		s.classes[i].q = make([]entry, 0, n)
	}
}

// class returns the index of the class of capability mask, opening it
// when it has none. The caller holds mu.
func (s *Sched) class(mask uint64) int {
	for i := range s.classes {
		if s.classes[i].mask == mask {
			return i
		}
	}
	s.classes = append(s.classes, class{mask: mask})
	return len(s.classes) - 1
}

// Push implements runtime.Scheduler.
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	c := &s.classes[s.class(t.Caps())]
	if len(c.q) == cap(c.q) && c.head >= len(c.q)/2 {
		n := copy(c.q, c.q[c.head:])
		clear(c.q[n:])
		c.q, c.head = c.q[:n], 0
	}
	c.q = append(c.q, entry{seq: s.seq, t: t})
	s.seq++
	s.mu.Unlock()
}

// Pop implements runtime.Scheduler: first runnable unclaimed task in
// FIFO order. Tasks the worker cannot run are left in place for others.
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	if w.Arch < 0 || int(w.Arch) >= 64 {
		return nil
	}
	bit := uint64(1) << uint(w.Arch)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		best := -1
		var bestSeq uint64
		for i := range s.classes {
			c := &s.classes[i]
			if c.mask&bit == 0 {
				continue
			}
			// Claimed heads (speculation losers, or tasks another
			// worker won between our scans) are dead; drop them.
			for c.head < len(c.q) && s.env.Claimed(c.q[c.head].t) {
				c.q[c.head].t = nil
				c.head++
			}
			if c.head == len(c.q) {
				c.q = c.q[:0]
				c.head = 0
				continue
			}
			if best < 0 || c.q[c.head].seq < bestSeq {
				best = i
				bestSeq = c.q[c.head].seq
			}
		}
		if best < 0 {
			return nil
		}
		c := &s.classes[best]
		t := c.q[c.head].t
		c.q[c.head].t = nil
		c.head++
		if c.head == len(c.q) {
			c.q = c.q[:0]
			c.head = 0
		}
		if s.env.TryClaim(t) {
			return t
		}
		// Lost the claim race: the task is gone either way, rescan.
	}
}

// TaskDone implements runtime.Scheduler.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}
