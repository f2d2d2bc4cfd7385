// Package core implements MultiPrio, the dynamic task scheduler with
// multiple priorities for heterogeneous computing systems introduced by
// Tayeb, Bramas, Faverge and Guermouche (IPPS 2024).
//
// MultiPrio keeps one binary max-heap of ready tasks per memory node
// (Section III-B). When a task becomes ready (PUSH, Algorithm 1) it is
// scored once per eligible architecture with two heuristics — the gain
// heuristic (Eq. 1, primary key) and the NOD criticality heuristic
// (Eq. 2, tie-break) — and inserted into every heap whose processing
// units can execute it. When a worker idles (POP, Algorithm 2) it takes
// the most data-local task among the top candidates of its node's heap
// (LS_SDH², Eq. 3), subject to the pop condition: the worker is the
// fastest architecture for the task, or the fastest architecture has
// enough remaining work queued (best_remaining_work) that letting a
// slower worker proceed helps the makespan. A failed condition evicts
// the task from this node's heap — duplicates in other heaps survive —
// which is the mechanism that removes end-of-DAG accelerator idle time
// (Section V-D, Fig. 4).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"multiprio/internal/heap"
	"multiprio/internal/obs"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Config tunes MultiPrio. The zero value plus Defaults() reproduces the
// paper's evaluation settings; the Disable* switches drive the ablation
// studies of DESIGN.md §5.
type Config struct {
	// LocalityWindow is n, the number of top heap candidates examined
	// by the locality-aware POP. Paper: n = 10.
	LocalityWindow int
	// Epsilon is the maximum normalized score distance from the heap
	// head for a candidate to stay eligible. Paper: ε = 0.8.
	Epsilon float64
	// MaxTries bounds the evict-and-retry loop of Algorithm 2.
	MaxTries int
	// DisableEviction makes the pop condition always true (the "without
	// eviction mechanism" configuration of Fig. 4).
	DisableEviction bool
	// DisableCriticality drops the NOD tie-break (gain-only ordering).
	DisableCriticality bool
	// DisableLocality makes POP take the heap head directly (n = 1).
	DisableLocality bool
	// FlatGain replaces Eq. 1 with a plain speedup ratio, the ablation
	// for the gain heuristic's normalization.
	FlatGain bool
}

// Defaults returns the paper's evaluation configuration (Section VI:
// n = 10, ε = 0.8).
func Defaults() Config {
	return Config{LocalityWindow: 10, Epsilon: 0.8, MaxTries: 4}
}

// normalized fills the knobs left at zero with their Defaults.
func (c Config) normalized() Config {
	d := Defaults()
	if c.LocalityWindow <= 0 {
		c.LocalityWindow = d.LocalityWindow
	}
	if c.Epsilon <= 0 {
		c.Epsilon = d.Epsilon
	}
	if c.MaxTries <= 0 {
		c.MaxTries = d.MaxTries
	}
	if c.DisableLocality {
		c.LocalityWindow = 1
	}
	return c
}

// taskState is MultiPrio's per-task scratch, Sched.states[task ID].
type taskState struct {
	// members is a bitmask of memory nodes whose heap holds the task.
	members uint64
	// bestArch is the fastest eligible architecture at push time; the
	// best_remaining_work accounting must add and subtract the same
	// δ(t, bestArch), so it is frozen here.
	bestArch  platform.ArchID
	bestDelta float64
}

// Sched is the MultiPrio scheduler. Create with New; safe for concurrent
// use by the threaded engine (one global mutex guards the heap set, as
// the heaps are cheap and the number of memory nodes small).
type Sched struct {
	cfg Config

	mu    sync.Mutex
	env   *runtime.Env
	heaps []*heap.Heap // one per memory node; item ids are task IDs

	// readyCount[m] is the number of ready tasks in heap m. It is only
	// written under mu, but atomically, so Pop can turn an idle worker
	// away from an empty heap without taking the lock.
	readyCount []atomic.Int32
	// bestRemaining[m] is the summed δ(t, bestArch) of ready tasks
	// whose fastest architecture is the one tied to m (Algorithm 1).
	bestRemaining []float64
	// hd[a] is the highest execution-time difference recorded so far
	// on architecture a (the normalizer of Eq. 1).
	hd []float64
	// maxNOD is the running maximum of raw NOD values (normalizer of
	// the criticality score).
	maxNOD float64

	// Evictions counts pop-condition failures (observability).
	Evictions int64

	// topBuf is the reused top-n candidate scratch of POP; archBuf the
	// reused eligible-architecture scratch of PUSH and deltas the δ(t, a)
	// of the task being pushed, per architecture; states the per-task
	// scratch by task ID, sized at Init for the complete graph.
	topBuf  []heap.ScoredID
	archBuf []platform.ArchID
	deltas  []float64
	states  []taskState

	// probe receives decision events and counter samples; nil (the
	// default) disables observation. Track names are prebuilt at Init
	// so the observing path does not allocate per event either.
	probe         obs.Probe
	readyTrack    []string
	bestRemTrack  []string
	evictionTrack string
}

// New returns a MultiPrio scheduler with the given configuration.
func New(cfg Config) *Sched {
	return &Sched{cfg: cfg.normalized()}
}

// Name implements runtime.Scheduler.
func (s *Sched) Name() string { return "multiprio" }

// Init implements runtime.Scheduler.
func (s *Sched) Init(env *runtime.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(env.Machine.Mems) > 64 {
		panic("multiprio: more than 64 memory nodes unsupported")
	}
	s.env = env
	s.heaps = make([]*heap.Heap, len(env.Machine.Mems))
	for i := range s.heaps {
		s.heaps[i] = heap.New(256)
	}
	s.readyCount = make([]atomic.Int32, len(env.Machine.Mems))
	// The per-node and per-architecture floats share one allocation: a
	// run's object count is pinned (sim.TestMultiPrioRunAllocationCount).
	nm, na := len(env.Machine.Mems), len(env.Machine.Archs)
	floats := make([]float64, nm+2*na)
	s.bestRemaining, s.hd, s.deltas = floats[:nm:nm], floats[nm:nm+na:nm+na], floats[nm+na:]
	s.maxNOD = 0
	s.Evictions = 0
	s.states = make([]taskState, len(env.Graph.Tasks))
	s.probe = env.Probe
	if s.probe != nil {
		s.readyTrack = make([]string, len(env.Machine.Mems))
		s.bestRemTrack = make([]string, len(env.Machine.Mems))
		for i, mn := range env.Machine.Mems {
			s.readyTrack[i] = "multiprio.ready[" + mn.Name + "]"
			s.bestRemTrack[i] = "multiprio.best_remaining[" + mn.Name + "]"
		}
		s.evictionTrack = "multiprio.evictions"
	}
}

// ReadsNOD implements runtime.NODReader: the criticality tie-break reads
// Eq. 2 unless it is disabled.
func (s *Sched) ReadsNOD() bool { return !s.cfg.DisableCriticality }

// Push implements runtime.Scheduler (Algorithm 1). The task is scored
// and inserted into the heap of every memory node whose architecture can
// execute it.
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushLocked(t)
}

func (s *Sched) pushLocked(t *runtime.Task) {
	m := s.env.Machine
	// The per-architecture quantities behind Eq. 1 (best/second-best
	// deltas, eligible-architecture count) depend only on the task, not
	// on the memory node: compute them once, not once per heap.
	archs, bestArch, bestDelta, secondDelta := s.deltaRow(t)
	if bestArch < 0 {
		panic(fmt.Sprintf("multiprio: task %d (%s) runs on no available architecture", t.ID, t.Kind()))
	}
	st := &s.states[t.ID]
	*st = taskState{bestArch: bestArch, bestDelta: bestDelta}
	s.updateHD(archs, bestArch, bestDelta, secondDelta)

	var at float64
	var seq int64
	if s.probe != nil {
		at, seq = s.env.Now(), s.env.Seq()
		s.probe.Decision(obs.Decision{
			Kind: obs.PushBest, At: at, Seq: seq, Task: t.ID,
			Worker: -1, Mem: -1, Arch: int(bestArch),
			N: len(archs), A: bestDelta, B: secondDelta,
		})
	}
	inserted := false
	for mem := range m.Mems {
		memID := platform.MemID(mem)
		a := m.MemArch(memID)
		if !t.CanRun(a) || s.env.LiveWorkersOn(memID) == 0 {
			// No live worker will ever pop this node's heap (either the
			// node lost all its workers to faults, or it never had any).
			continue
		}
		gain := s.gainWith(a, len(archs), bestArch, bestDelta, secondDelta)
		prio := 0.0
		if !s.cfg.DisableCriticality {
			// The raw NOD is the run's table entry; only its
			// normalization by the running maximum is per insertion.
			prio = s.criticality(s.env.NOD(t, a))
		}
		ready := s.readyCount[mem].Add(1)
		if a == bestArch {
			s.bestRemaining[mem] += bestDelta
		}
		s.heaps[mem].Push(t.ID, heap.Score{Primary: gain, Secondary: prio})
		st.members |= 1 << uint(mem)
		inserted = true
		if s.probe != nil {
			s.probe.Decision(obs.Decision{
				Kind: obs.PushScore, At: at, Seq: seq, Task: t.ID,
				Worker: -1, Mem: mem, Arch: int(a), A: gain, B: prio,
			})
			s.probe.Counter(s.readyTrack[mem], at, seq, float64(ready))
			if a == bestArch {
				s.probe.Counter(s.bestRemTrack[mem], at, seq, s.bestRemaining[mem])
			}
		}
	}
	if !inserted {
		panic(fmt.Sprintf("multiprio: task %d (%s) inserted into no heap", t.ID, t.Kind()))
	}
}

// Pop implements runtime.Scheduler (Algorithm 2).
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	// An empty heap has nothing to decide: most Pop calls of a run are
	// idle workers probing one, and they need not queue on the lock.
	if s.readyCount[w.Mem].Load() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	for tries := 0; tries <= s.cfg.MaxTries; tries++ {
		t := s.mostLocalPrioTask(w.Mem)
		if t == nil {
			return nil
		}
		ok, cost, horizon := s.popCondition(t, w)
		if ok {
			if s.probe != nil {
				// The LS_SDH² score must be read before claim tears the
				// task's replica pins down — and read-only, so the
				// observation cannot perturb the decision it records.
				at, seq := s.env.Now(), s.env.Seq()
				s.probe.Decision(obs.Decision{
					Kind: obs.PopSelect, At: at, Seq: seq, Task: t.ID,
					Worker: int(w.ID), Mem: int(w.Mem), Arch: int(w.Arch),
					N: tries, A: s.env.LSSDH2(t, w.Mem), B: cost, C: horizon,
				})
			}
			s.claim(t)
			return t
		}
		// Evict from this node's heap; duplicates elsewhere survive.
		// The last live copy is never evicted: the pop condition is
		// always true on the best architecture's own nodes, and
		// estimate drift could otherwise strand a task.
		st := &s.states[t.ID]
		if bits.OnesCount64(st.members) <= 1 {
			return nil
		}
		s.heaps[w.Mem].Remove(t.ID)
		st.members &^= 1 << uint(w.Mem)
		ready := s.readyCount[w.Mem].Add(-1)
		s.Evictions++
		if s.probe != nil {
			at, seq := s.env.Now(), s.env.Seq()
			s.probe.Decision(obs.Decision{
				Kind: obs.PopEvict, At: at, Seq: seq, Task: t.ID,
				Worker: int(w.ID), Mem: int(w.Mem), Arch: int(w.Arch),
				N: tries, A: cost, B: horizon,
			})
			s.probe.Counter(s.evictionTrack, at, seq, float64(s.Evictions))
			s.probe.Counter(s.readyTrack[w.Mem], at, seq, float64(ready))
		}
	}
	return nil
}

// TaskDone implements runtime.Scheduler.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}

// WorkerDown implements runtime.FaultObserver. Losing a worker on a
// node with survivors needs no heap surgery: the duplicates in the
// node's heap stay poppable. When the node loses its *last* worker its
// heap becomes unreachable, so it is drained here: memberships and the
// readyCount/best_remaining_work accounting are unwound entry by entry,
// and tasks that lived only in this heap are re-pushed so they are
// rescored against the shrunken machine (their bestArch may change,
// which is why a simple re-insert elsewhere would corrupt the
// best_remaining_work invariant).
func (s *Sched) WorkerDown(w runtime.WorkerInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.env.LiveWorkersOn(w.Mem) > 0 {
		return
	}
	mem := w.Mem
	h := s.heaps[mem]
	var orphans []*runtime.Task
	for h.Len() > 0 {
		id, _, _ := h.Pop()
		t := s.env.Graph.Tasks[id]
		st := &s.states[t.ID]
		if st.members&(1<<uint(mem)) == 0 {
			continue // stale duplicate of an already-claimed task
		}
		st.members &^= 1 << uint(mem)
		if s.env.Machine.MemArch(mem) == st.bestArch {
			s.bestRemaining[mem] -= st.bestDelta
		}
		if st.members == 0 {
			orphans = append(orphans, t)
		}
	}
	// The node is gone for good: zero the counters outright so float
	// accumulation error cannot leave a phantom horizon behind.
	s.readyCount[mem].Store(0)
	s.bestRemaining[mem] = 0
	if s.probe != nil {
		at, seq := s.env.Now(), s.env.Seq()
		s.probe.Counter(s.readyTrack[mem], at, seq, 0)
		s.probe.Counter(s.bestRemTrack[mem], at, seq, 0)
	}
	// Heap order made the drain deterministic; re-push in that order.
	for _, t := range orphans {
		s.pushLocked(t)
	}
}

// claim removes the task from every heap. Under the global lock this is
// equivalent to the paper's lazy duplicate removal (stale duplicates are
// recognized and dropped at the next pop) but keeps the ready counters
// and the top-n locality scans exact.
func (s *Sched) claim(t *runtime.Task) {
	if !s.env.TryClaim(t) {
		panic(fmt.Sprintf("multiprio: task %d double-claimed", t.ID))
	}
	st := &s.states[t.ID]
	var at float64
	var seq int64
	if s.probe != nil {
		at, seq = s.env.Now(), s.env.Seq()
	}
	for mem := range s.heaps {
		if st.members&(1<<uint(mem)) == 0 {
			continue
		}
		s.heaps[mem].Remove(t.ID)
		ready := s.readyCount[mem].Add(-1)
		if s.env.Machine.MemArch(platform.MemID(mem)) == st.bestArch {
			s.bestRemaining[mem] -= st.bestDelta
			if s.bestRemaining[mem] < 0 {
				s.bestRemaining[mem] = 0
			}
			if s.probe != nil {
				s.probe.Counter(s.bestRemTrack[mem], at, seq, s.bestRemaining[mem])
			}
		}
		if s.probe != nil {
			s.probe.Counter(s.readyTrack[mem], at, seq, float64(ready))
		}
	}
	st.members = 0
}

// mostLocalPrioTask returns the candidate the POP operation should
// consider on memory node mem: the most data-local task among the top-n
// heap entries whose primary score is within ε of the head (Section
// V-C). The heap is left untouched.
func (s *Sched) mostLocalPrioTask(mem platform.MemID) *runtime.Task {
	h := s.heaps[mem]
	if h.Len() == 0 {
		return nil
	}
	if s.cfg.LocalityWindow == 1 {
		id, _, _ := h.Peek()
		return s.env.Graph.Tasks[id]
	}
	s.topBuf = h.TopNScored(s.topBuf[:0], s.cfg.LocalityWindow)
	if len(s.topBuf) == 0 {
		return nil
	}
	head := s.env.Graph.Tasks[s.topBuf[0].ID]
	if s.missingBytes(head, mem) == 0 {
		// The head is already fully local: reordering can only hurt
		// (on the RAM node, where every handle is resident, LS_SDH²
		// would otherwise degenerate into sorting by data size).
		return head
	}
	headScore := s.topBuf[0].Score
	best := head
	bestLoc := s.env.LSSDH2(best, mem)
	for _, c := range s.topBuf[1:] {
		if headScore.Primary-c.Score.Primary > s.cfg.Epsilon {
			continue
		}
		t := s.env.Graph.Tasks[c.ID]
		if s.states[t.ID].members&(1<<uint(mem)) == 0 {
			// A duplicate left behind by lazy removal: the task was
			// already claimed through another node's heap.
			if s.probe != nil {
				s.probe.Decision(obs.Decision{
					Kind: obs.PopStale, At: s.env.Now(), Seq: s.env.Seq(),
					Task: c.ID, Worker: -1, Mem: int(mem), Arch: -1,
				})
			}
			continue
		}
		if loc := s.env.LSSDH2(t, mem); loc > bestLoc {
			best, bestLoc = t, loc
		}
	}
	return best
}

// missingBytes sums the sizes of t's read data not resident on mem.
func (s *Sched) missingBytes(t *runtime.Task, mem platform.MemID) int64 {
	if s.env.Locator == nil {
		return 0
	}
	var sum int64
	for _, u := range t.Uses() {
		if u.Mode == runtime.W {
			continue
		}
		if bytes, ok := s.env.Locator.Resident(u.Handle, mem); !ok {
			sum += bytes
		}
	}
	return sum
}

// popCondition decides whether the worker should take the task now
// (Section V-D): yes when the worker is of the task's fastest
// architecture, or when the best architecture's workers are busy long
// enough that letting this slower worker proceed helps the makespan —
// "if the best worker is sufficiently busy, we allow the task to go to
// a slower worker to maintain progress in the DAG".
//
// One reading of the pseudocode is made explicit here: the stealing
// worker's execution time includes its unit speed factor (GPU stream
// workers share their device), so a stream worker is charged the real
// time the steal would occupy the device slot.
//
// The steal cost and the remaining-work horizon it was compared against
// are returned for the probe (both 0 on the trivially-true branches).
func (s *Sched) popCondition(t *runtime.Task, w runtime.WorkerInfo) (ok bool, cost, horizon float64) {
	if s.cfg.DisableEviction {
		return true, 0, 0
	}
	st := &s.states[t.ID]
	if w.Arch == st.bestArch {
		return true, 0, 0
	}
	minHorizon := math.Inf(1)
	for mem := range s.env.Machine.Mems {
		memID := platform.MemID(mem)
		// Dead nodes hold no workers to burn their remaining work down;
		// with every best-arch node dead the horizon stays +Inf and any
		// surviving worker may take the task.
		if s.env.Machine.MemArch(memID) != st.bestArch || s.env.LiveWorkersOn(memID) == 0 {
			continue
		}
		if h := s.bestRemaining[mem]; h < minHorizon {
			minHorizon = h
		}
	}
	cost = s.env.Delta(t, w.Arch) * s.env.Machine.Units[w.ID].SpeedFactor
	return minHorizon > cost, cost, minHorizon
}

// deltaRow evaluates δ(t, a) once per architecture into s.deltas and
// reads the task-level inputs of Eq. 1 off that row: the eligible
// architectures (implemented and with a live worker, into a scratch
// slice valid until the next call — safe under the global lock), the
// fastest architecture with a live worker and its δ (-1 and +Inf when
// there is none), and the second-best δ (+Inf with fewer than two).
func (s *Sched) deltaRow(t *runtime.Task) (archs []platform.ArchID, best platform.ArchID, bestDelta, secondDelta float64) {
	archs, best = s.archBuf[:0], -1
	bestDelta, secondDelta = math.Inf(1), math.Inf(1)
	for a := range s.deltas {
		arch := platform.ArchID(a)
		d := s.env.Delta(t, arch)
		s.deltas[a] = d
		if s.env.LiveWorkersOf(arch) == 0 {
			continue
		}
		if t.CanRun(arch) {
			archs = append(archs, arch)
		}
		switch {
		case d < bestDelta:
			best, bestDelta, secondDelta = arch, d, bestDelta
		case d < secondDelta:
			secondDelta = d
		}
	}
	s.archBuf = archs
	return archs, best, bestDelta, secondDelta
}

// gain computes the gain heuristic of Eq. 1 for task t on architecture
// a, normalized to [0, 1].
func (s *Sched) gain(t *runtime.Task, a platform.ArchID) float64 {
	archs, bestArch, bestDelta, secondDelta := s.deltaRow(t)
	return s.gainWith(a, len(archs), bestArch, bestDelta, secondDelta)
}

// gainWith is gain for the task whose row deltaRow last filled, with the
// task-level inputs it returned: Push scores a task once per memory node
// and those inputs do not change across nodes.
func (s *Sched) gainWith(a platform.ArchID, nArchs int, bestArch platform.ArchID, bestDelta, secondDelta float64) float64 {
	if s.cfg.FlatGain {
		// Ablation: plain affinity ratio, 1 on the fastest arch.
		d := s.deltas[a]
		if d <= 0 || math.IsInf(d, 1) {
			return 0
		}
		return bestDelta / d
	}
	if nArchs <= 1 {
		return 1
	}
	da := s.deltas[a]
	hd := s.hd[a]
	if hd <= 0 {
		return 0.5
	}
	var diff float64
	if a == bestArch {
		diff = secondDelta - da
	} else {
		diff = bestDelta - da
	}
	g := (diff + hd) / (2 * hd)
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}

// updateHD refreshes the per-architecture highest execution-time
// difference with the task whose row deltaRow last filled, before its
// gain is computed (the worked example of Table II includes the current
// task in hd).
func (s *Sched) updateHD(archs []platform.ArchID, bestArch platform.ArchID, bestDelta, secondDelta float64) {
	if len(archs) <= 1 {
		return
	}
	for _, a := range archs {
		da := s.deltas[a]
		var diff float64
		if a == bestArch {
			diff = math.Abs(secondDelta - da)
		} else {
			diff = math.Abs(bestDelta - da)
		}
		if diff > s.hd[a] {
			s.hd[a] = diff
		}
	}
}

// criticality normalizes a raw NOD value (Eq. 2) by the running maximum,
// which it first raises to include the value.
func (s *Sched) criticality(nod float64) float64 {
	if nod > s.maxNOD {
		s.maxNOD = nod
	}
	if s.maxNOD <= 0 {
		return 0
	}
	return nod / s.maxNOD
}

// Gain exposes the gain heuristic (Eq. 1) of a pushed task for reports
// and the Table II experiment.
func (s *Sched) Gain(t *runtime.Task, a platform.ArchID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gain(t, a)
}

// HD returns the current highest execution-time difference recorded on
// architecture a (the Eq. 1 normalizer).
func (s *Sched) HD(a platform.ArchID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hd[a]
}

// NOD returns the raw Normalized Out-Degree of Eq. 2 on architecture a,
// from the run's table (runtime.Env.NOD). Exported for the Fig. 3
// experiment and tests.
func (s *Sched) NOD(t *runtime.Task, a platform.ArchID) float64 {
	return s.env.NOD(t, a)
}

// readyOn returns the current number of ready tasks queued on mem
// (tests).
func (s *Sched) readyOn(mem platform.MemID) int {
	return int(s.readyCount[mem].Load())
}
