// Package heteroprio implements the automatic HeteroPrio scheduler
// (Agullo et al., CCPE 2016; automatic prioritizing per Flint, Paillat
// and Bramas, PeerJ CS 2022): ready tasks are binned into buckets by
// task type, and each architecture traverses the buckets in its own
// order derived from the measured acceleration factors — GPUs scan
// buckets by descending GPU speedup, CPUs by ascending.
//
// This is the affinity-based baseline of the paper's evaluation. Its
// known limitation — one priority per task *type*, hiding per-task
// scheduling context — is exactly what MultiPrio's per-task scores
// address (Section II).
package heteroprio

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// bucket is the FIFO of ready tasks of one type and size class. label
// is the pair as "kind/class", the name the traversal order breaks
// speed-up ties by.
type bucket struct {
	label string
	tasks []*runtime.Task
	// speedup is the running mean of δ(cpu)/δ(gpu) for this type
	// (>1 means GPU-favourable).
	speedupSum float64
	speedupN   int
}

func (b *bucket) speedup() float64 {
	if b.speedupN == 0 {
		return 1
	}
	return b.speedupSum / float64(b.speedupN)
}

// Sched is the automatic HeteroPrio policy.
type Sched struct {
	mu  sync.Mutex
	env *runtime.Env
	// slots[k*sizeClasses+c] is 1 + the index in buckets of the bucket of
	// KindID k and size class c, 0 for none yet.
	slots   []int32
	buckets []*bucket
	// ordered caches the bucket traversal order; rebuilt when a new
	// task type appears or accelerations shift materially.
	ordered []*bucket
	dirty   bool
}

// New returns an automatic HeteroPrio scheduler.
func New() *Sched { return &Sched{} }

// Name implements runtime.Scheduler.
func (s *Sched) Name() string { return "heteroprio" }

// Init implements runtime.Scheduler.
func (s *Sched) Init(env *runtime.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env = env
	n := len(env.Graph.Kinds()) * sizeClasses
	s.slots = slices.Grow(s.slots[:0], n)[:n]
	clear(s.slots)
	s.buckets = s.buckets[:0]
	s.ordered = nil
	s.dirty = true
}

// sizeClasses is the number of size classes: a footprint's class is
// the number of times it divides by 4 before reaching 1, at most 32.
const sizeClasses = 33

// sizeClass is a coarse class of t's footprint.
func sizeClass(t *runtime.Task) int {
	cls := 0
	for fp := t.Footprint; fp > 1; fp >>= 2 {
		cls++
	}
	return cls
}

// bucketOf returns t's bucket, made on first use: kernel type plus a
// coarse size class, matching StarPU's per-codelet-per-footprint-class
// bucketing. Without the size class a type mixing tiny and huge
// instances (sparse QR updates) would get one priority for all of them —
// the per-type limitation the paper discusses — but at a catastrophic
// rather than realistic severity.
func (s *Sched) bucketOf(t *runtime.Task) *bucket {
	cls := sizeClass(t)
	slot := int(t.KindID())*sizeClasses + cls
	if slot >= len(s.slots) {
		s.slots = append(s.slots, make([]int32, slot+1-len(s.slots))...)
	}
	if i := s.slots[slot]; i > 0 {
		return s.buckets[i-1]
	}
	b := &bucket{label: fmt.Sprintf("%s/%d", t.Kind(), cls)}
	s.buckets = append(s.buckets, b)
	s.slots[slot] = int32(len(s.buckets))
	s.dirty = true
	return b
}

// Push implements runtime.Scheduler: bin the task by type and size
// class and update the bucket's measured acceleration.
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bucketOf(t)
	dCPU := s.env.Delta(t, platform.ArchCPU)
	dGPU := s.env.Delta(t, platform.ArchGPU)
	switch {
	case dCPU > 0 && dGPU > 0 && !isInf(dCPU) && !isInf(dGPU):
		b.speedupSum += dCPU / dGPU
		b.speedupN++
	case isInf(dCPU) && !isInf(dGPU):
		// GPU-only: effectively infinite speedup; use a large constant
		// so the bucket sorts to the GPU end.
		b.speedupSum += 1e6
		b.speedupN++
	case isInf(dGPU) && !isInf(dCPU):
		b.speedupSum += 1e-6
		b.speedupN++
	}
	b.tasks = append(b.tasks, t)
	// Accelerations refine as tasks flow; the order is cheap to rebuild
	// (a handful of task types), so refresh it on the next pop.
	s.dirty = true
}

// Mismatch thresholds bound how strongly a bucket may favour the other
// architecture before a worker refuses it: the stand-in for HeteroPrio's
// spoliation and per-architecture bucket exclusions, which keep a horde
// of idle slow workers from draining the accelerator-bound buckets the
// moment tasks become ready. The soft threshold applies on the first
// pass; the hard one is absolute — a task 50× better on the other
// architecture waits for it (it sits at the head of that architecture's
// traversal order anyway).
const (
	softMismatch = 15.0
	hardMismatch = 50.0
)

// Pop implements runtime.Scheduler: traverse the buckets in this
// architecture's priority order and take the first runnable head,
// preferring buckets not strongly tied to the other architecture.
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reorder()
	if t := s.scan(w, softMismatch); t != nil {
		return t
	}
	return s.scan(w, hardMismatch)
}

func (s *Sched) scan(w runtime.WorkerInfo, threshold float64) *runtime.Task {
	// GPUs scan from the high-speedup end, CPUs from the low end.
	n := len(s.ordered)
	for i := 0; i < n; i++ {
		var b *bucket
		if w.Arch == platform.ArchGPU {
			b = s.ordered[n-1-i]
		} else {
			b = s.ordered[i]
		}
		sp := b.speedup()
		if w.Arch == platform.ArchGPU && sp < 1/threshold {
			continue
		}
		if w.Arch != platform.ArchGPU && sp > threshold {
			continue
		}
		for len(b.tasks) > 0 {
			t := b.tasks[0]
			if s.env.Claimed(t) {
				b.tasks = b.tasks[1:]
				continue
			}
			if !t.CanRun(w.Arch) {
				break // whole bucket shares the type; skip it
			}
			if !s.env.TryClaim(t) {
				panic(fmt.Sprintf("heteroprio: task %d claimed twice", t.ID))
			}
			b.tasks = b.tasks[1:]
			return t
		}
	}
	return nil
}

// TaskDone implements runtime.Scheduler.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}

// reorder rebuilds the bucket ordering by ascending measured speedup.
func (s *Sched) reorder() {
	if !s.dirty {
		return
	}
	s.ordered = append(s.ordered[:0], s.buckets...)
	sort.Slice(s.ordered, func(i, j int) bool {
		si, sj := s.ordered[i].speedup(), s.ordered[j].speedup()
		if si != sj {
			return si < sj
		}
		return s.ordered[i].label < s.ordered[j].label
	})
	s.dirty = false
}

// bucketOrder returns the current CPU-side bucket traversal order
// (ascending GPU speedup), for tests.
func (s *Sched) bucketOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reorder()
	out := make([]string, len(s.ordered))
	for i, b := range s.ordered {
		out[i] = b.label
	}
	return out
}

func isInf(x float64) bool { return x > 1e300 }
