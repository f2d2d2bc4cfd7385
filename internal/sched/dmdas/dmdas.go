// Package dmdas implements StarPU's dequeue-model scheduler family
// (Augonnet et al., ICPADS 2010), the HEFT-like task-centric baselines of
// the paper's evaluation:
//
//   - dm (heft-tm-pr): at PUSH, map the task to the worker with the
//     minimum expected completion time based on the performance model.
//   - dmda (heft-tmdp-pr): additionally account for the time to transfer
//     the task's data to the worker's memory node, and request prefetch
//     once the mapping is decided.
//   - dmdas: additionally keep each worker's queue sorted by the
//     application-provided task priority, preferring data-ready tasks
//     among equal priorities.
//
// The paper compares MultiPrio against dmdas, which "exploits task
// priorities provided by user knowledge"; when the application sets no
// priorities (TBFMM, QR_MUMPS) dmdas degenerates to FIFO within the
// mapped queues, exactly as described in Section II.
package dmdas

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"multiprio/internal/obs"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Variant selects the member of the dequeue-model family.
type Variant int

// The published variants. DMDAR is dmda-ready: FIFO queues, but POP
// prefers a task whose data is already resident on the worker's memory
// node (StarPU's dmdar policy).
const (
	DM Variant = iota
	DMDA
	DMDAS
	DMDAR
)

func (v Variant) String() string {
	switch v {
	case DM:
		return "dm"
	case DMDA:
		return "dmda"
	case DMDAS:
		return "dmdas"
	case DMDAR:
		return "dmdar"
	default:
		return fmt.Sprintf("dm-variant-%d", int(v))
	}
}

// entry is one queued task: the priority the queue is ordered and
// scanned by, the enqueue-time execution estimate (needed to unwind the
// expected-load accounting at pop) and the task's ID in env.Graph. It
// holds no pointer, so moving entries costs no write barrier.
type entry struct {
	prio int
	est  float64
	id   int32
}

// queue is the tasks mapped to one worker: buf[head:], in pop order.
// Taking the front entry advances head; an insert or a removal further
// in moves whichever side of it is shorter.
type queue struct {
	buf  []entry
	head int
}

// live returns the queued entries, front first.
func (q *queue) live() []entry { return q.buf[q.head:] }

// insert places e at index i of the queue.
func (q *queue) insert(i int, e entry) {
	n := len(q.buf) - q.head
	if q.head > 0 && i < n-i {
		q.head--
		copy(q.buf[q.head:], q.buf[q.head+1:q.head+1+i])
		q.buf[q.head+i] = e
		return
	}
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		// Full, but with popped space in front: slide down instead of
		// growing, so the buffer never outgrows the longest queue.
		q.buf, q.head = q.buf[:copy(q.buf, q.live())], 0
	}
	q.buf = append(q.buf, e)
	live := q.live()
	copy(live[i+1:], live[i:])
	live[i] = e
}

// remove takes the entry at index i out of the queue.
func (q *queue) remove(i int) {
	if live := q.live(); i < len(live)-1-i {
		copy(live[1:i+1], live[:i])
		q.head++
	} else {
		copy(live[i:], live[i+1:])
		q.buf = q.buf[:len(q.buf)-1]
	}
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Sched is a dequeue-model scheduler.
type Sched struct {
	variant Variant

	mu  sync.Mutex
	env *runtime.Env
	// queues[w] holds the tasks mapped to worker w (sorted by priority
	// for DMDAS, FIFO otherwise).
	queues []queue
	// load[w] is the summed estimated execution time of queued tasks.
	load []float64
	// xfer caches TransferEstimate per memory node within one Push
	// (several workers share a memory node; the estimate only depends
	// on the node). -1 marks a stale entry.
	xfer []float64

	// probe receives mapping decisions and per-worker load/queue-depth
	// counters; nil disables observation. Track names are prebuilt at
	// Init so the observing path does not allocate.
	probe      obs.Probe
	loadTrack  []string
	queueTrack []string
}

// New returns a scheduler of the given variant.
func New(v Variant) *Sched { return &Sched{variant: v} }

// Name implements runtime.Scheduler.
func (s *Sched) Name() string { return s.variant.String() }

// Init implements runtime.Scheduler.
func (s *Sched) Init(env *runtime.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env = env
	s.queues = make([]queue, len(env.Machine.Units))
	s.load = make([]float64, len(env.Machine.Units))
	s.xfer = make([]float64, len(env.Machine.Mems))
	s.probe = env.Probe
	if s.probe != nil {
		name := s.variant.String()
		s.loadTrack = make([]string, len(env.Machine.Units))
		s.queueTrack = make([]string, len(env.Machine.Units))
		for i, u := range env.Machine.Units {
			s.loadTrack[i] = name + ".load[" + u.Name + "]"
			s.queueTrack[i] = name + ".queue[" + u.Name + "]"
		}
	}
}

// Push implements runtime.Scheduler: the HEFT step. The task is mapped
// immediately to the worker minimizing expected completion time.
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()

	m := s.env.Machine
	now := s.env.Now()
	for i := range s.xfer {
		s.xfer[i] = -1
	}
	bestW := -1
	bestECT := math.Inf(1)
	bestEst := 0.0
	for w, unit := range m.Units {
		if !s.env.WorkerAlive(platform.UnitID(w)) {
			continue // killed by a fault; its queue is never drained
		}
		d := s.env.Delta(t, unit.Arch)
		if math.IsInf(d, 1) {
			continue
		}
		est := d * unit.SpeedFactor
		ect := now + s.load[w] + est
		if s.variant != DM {
			if s.xfer[unit.Mem] < 0 {
				s.xfer[unit.Mem] = s.env.TransferEstimate(t, unit.Mem)
			}
			ect += s.xfer[unit.Mem]
		}
		if ect < bestECT {
			bestECT, bestW, bestEst = ect, w, est
		}
	}
	if bestW < 0 {
		panic(fmt.Sprintf("dmdas: task %d (%s) has no eligible worker", t.ID, t.Kind()))
	}
	q := &s.queues[bestW]
	live := q.live()
	i := len(live)
	if s.variant == DMDAS {
		// Sorted by priority descending, FIFO within equal priority: the
		// queue is already sorted and t is its newest task, so t's place
		// is before the first entry of strictly lower priority.
		i = sort.Search(len(live), func(i int) bool { return live[i].prio < t.Priority })
	}
	q.insert(i, entry{prio: t.Priority, est: bestEst, id: int32(t.ID)})
	s.load[bestW] += bestEst

	if s.probe != nil {
		at, seq := now, s.env.Seq()
		xfer := 0.0
		if s.variant != DM {
			xfer = s.xfer[m.Units[bestW].Mem]
		}
		s.probe.Decision(obs.Decision{
			Kind: obs.MapTask, At: at, Seq: seq, Task: t.ID,
			Worker: bestW, Mem: int(m.Units[bestW].Mem), Arch: int(m.Units[bestW].Arch),
			A: bestECT, B: bestEst, C: xfer,
		})
		s.probe.Counter(s.loadTrack[bestW], at, seq, s.load[bestW])
		s.probe.Counter(s.queueTrack[bestW], at, seq, float64(len(q.live())))
	}
	if s.variant != DM && s.env.Prefetch != nil {
		s.env.Prefetch(t, m.Units[bestW].Mem)
	}
}

// Pop implements runtime.Scheduler: the worker drains its own mapped
// queue. DMDAS prefers a data-ready task among the head's equal-priority
// group.
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	s.mu.Lock()
	defer s.mu.Unlock()

	q := &s.queues[w.ID]
	live := q.live()
	if len(live) == 0 {
		return nil
	}
	tasks := s.env.Graph.Tasks
	idx := 0
	switch {
	case s.variant == DMDAS && s.env.Locator != nil:
		headPrio := live[0].prio
		for i := 0; i < len(live) && live[i].prio == headPrio; i++ {
			if s.dataReady(tasks[live[i].id], w.Mem) {
				idx = i
				break
			}
		}
	case s.variant == DMDAR && s.env.Locator != nil:
		// dmda-ready: take the first data-ready task anywhere in the
		// queue, falling back to the FIFO head.
		for i := range live {
			if s.dataReady(tasks[live[i].id], w.Mem) {
				idx = i
				break
			}
		}
	}
	e, t := live[idx], tasks[live[idx].id]
	q.remove(idx)
	s.load[w.ID] -= e.est
	if s.load[w.ID] < 0 {
		s.load[w.ID] = 0
	}
	if !s.env.TryClaim(t) {
		panic(fmt.Sprintf("dmdas: task %d claimed twice", t.ID))
	}
	if s.probe != nil {
		// N is the queue index the task was taken from: non-zero means
		// a data-ready task bypassed the head (dmdas/dmdar only).
		at, seq := s.env.Now(), s.env.Seq()
		s.probe.Decision(obs.Decision{
			Kind: obs.PopSelect, At: at, Seq: seq, Task: t.ID,
			Worker: int(w.ID), Mem: int(w.Mem), Arch: int(w.Arch), N: idx,
		})
		s.probe.Counter(s.loadTrack[w.ID], at, seq, s.load[w.ID])
		s.probe.Counter(s.queueTrack[w.ID], at, seq, float64(len(q.live())))
	}
	return t
}

// TaskDone implements runtime.Scheduler.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}

// WorkerDown implements runtime.FaultObserver. The dequeue-model family
// maps at push time, so a killed worker strands its whole mapped queue:
// take it back and re-run the HEFT step for each entry, in queue order,
// against the surviving workers.
func (s *Sched) WorkerDown(w runtime.WorkerInfo) {
	s.mu.Lock()
	q := s.queues[w.ID]
	s.queues[w.ID] = queue{}
	s.load[w.ID] = 0
	s.mu.Unlock()
	for _, e := range q.live() {
		s.Push(s.env.Graph.Tasks[e.id]) // Push takes the lock itself
	}
}

// dataReady reports whether every read access of t is resident on mem.
func (s *Sched) dataReady(t *runtime.Task, mem platform.MemID) bool {
	for _, u := range t.Uses() {
		if u.Mode == runtime.W {
			continue
		}
		if _, ok := s.env.Locator.Resident(u.Handle, mem); !ok {
			return false
		}
	}
	return true
}
