package heft

import (
	"fmt"
	"sync"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Mode selects what replay does when execution deviates from the plan.
type Mode int

const (
	// Static is pinned replay: every task waits for its assigned worker
	// and runs in the planned per-worker order, no matter what the
	// environment does. A killed worker strands its remaining frontier
	// — the engines report it as runtime.ErrStarved.
	Static Mode = iota
	// Hybrid is replay with repair: a killed worker, or an observed
	// finish drifting past the slack budget, diverts the deviant
	// worker's remaining tasks to a dynamic fallback policy. Every
	// diversion is logged as a RepairEvent the oracle's StaticCheck
	// verifies against the trace.
	Hybrid
)

// RepairReason classifies why a repair event fired.
type RepairReason string

const (
	// RepairKill: the worker was killed by fault injection.
	RepairKill RepairReason = "kill"
	// RepairSlack: a task on the worker finished later than
	// planned finish + (SlackFactor−1) × plan makespan.
	RepairSlack RepairReason = "slack"
)

// RepairEvent records one deviation repair: at time At, worker Worker's
// remaining planned tasks (Tasks) were re-routed to the fallback
// policy. For slack repairs Trigger is the task whose measured-late
// finish justified the event; kill repairs set it to -1.
type RepairEvent struct {
	At      float64
	Worker  platform.UnitID
	Reason  RepairReason
	Trigger int64
	Tasks   []int64
}

// DefaultSlackFactor is the drift budget of hybrid repair: a task
// finishing later than planned finish + (factor−1) × plan makespan is a
// measured deviation. 1.5 tolerates half a plan makespan of accumulated
// drift — wide enough that model-vs-engine discrepancies (transfer
// queueing, commute serialization, moderate noise) never fire it, tight
// enough that a worker crawling through a slowdown window does.
const DefaultSlackFactor = 1.5

// Per-task replay state.
const (
	stUnready  uint8 = iota // dependencies not yet released
	stQueued                // pushed, waiting for its assigned worker
	stInFlight              // popped by its assigned worker
	stDiverted              // re-routed to the fallback policy
	stDone                  // effective completion seen
)

// Sched is the plan-replay scheduler. It is registered as "heft",
// "heft-oft" (Static) and "heft-hybrid", "heft-oft-hybrid" (Hybrid):
// Init computes the plan from the run's Env (graph, machine, perf
// model) — deterministically, so every run of a graph rebuilds the
// identical plan — and Pop hands worker w only w's next planned task.
type Sched struct {
	alg      Algorithm
	mode     Mode
	fallback runtime.Scheduler

	// SlackFactor overrides DefaultSlackFactor when > 1; set it before
	// the run starts (engines call Init once, before any Push).
	SlackFactor float64

	mu      sync.Mutex
	env     *runtime.Env
	plan    *Plan
	state   []uint8
	next    []int // per worker: first possibly pending slot in plan.Order
	dead    []bool
	repairs []RepairEvent
}

// NewStatic returns a pinned-replay scheduler (the pure static
// baseline) using the given ranking algorithm.
func NewStatic(alg Algorithm) *Sched { return &Sched{alg: alg, mode: Static} }

// NewHybrid returns a replay scheduler with deviation repair: diverted
// tasks are handed to fallback, which must be a fresh instance owned by
// this scheduler (Init re-initializes it).
func NewHybrid(alg Algorithm, fallback runtime.Scheduler) *Sched {
	if fallback == nil {
		panic("heft: NewHybrid with nil fallback")
	}
	return &Sched{alg: alg, mode: Hybrid, fallback: fallback}
}

// Name implements runtime.Scheduler.
func (s *Sched) Name() string {
	if s.mode == Hybrid {
		return s.alg.String() + "-hybrid"
	}
	return s.alg.String()
}

// Init implements runtime.Scheduler: it computes the static plan for
// the run. A graph with an unschedulable task panics — the same loud
// failure registry misconfiguration produces.
func (s *Sched) Init(env *runtime.Env) {
	plan, err := BuildPlan(env, s.alg)
	if err != nil {
		panic(fmt.Sprintf("heft: %v", err))
	}
	s.mu.Lock()
	s.env = env
	s.plan = plan
	s.state = make([]uint8, len(env.Graph.Tasks))
	s.next = make([]int, len(env.Machine.Units))
	s.dead = make([]bool, len(env.Machine.Units))
	s.repairs = nil
	s.mu.Unlock()
	if s.fallback != nil {
		s.fallback.Init(env)
	}
}

// Plan returns the schedule Init computed (nil before Init).
func (s *Sched) Plan() *Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// Repairs returns a copy of the repair events logged so far.
func (s *Sched) Repairs() []RepairEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RepairEvent, len(s.repairs))
	copy(out, s.repairs)
	return out
}

// EffectiveSlackFactor returns the slack factor in force: SlackFactor
// when set above 1, DefaultSlackFactor otherwise.
func (s *Sched) EffectiveSlackFactor() float64 { return s.slack() }

func (s *Sched) slack() float64 {
	if s.SlackFactor > 1 {
		return s.SlackFactor
	}
	return DefaultSlackFactor
}

// Push implements runtime.Scheduler. Diverted tasks (and fault-recovery
// re-pushes of tasks whose worker died) flow to the fallback; everything
// else queues for its assigned worker. A re-push of an earlier slot
// (retry after a transient failure) rewinds the worker's cursor.
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	if s.state[t.ID] == stDiverted {
		s.mu.Unlock()
		s.fallback.Push(t)
		return
	}
	s.state[t.ID] = stQueued
	w := s.plan.Assignment[t.ID]
	if slot := s.plan.Slot[t.ID]; slot < s.next[w] {
		s.next[w] = slot
	}
	s.mu.Unlock()
}

// Pop implements runtime.Scheduler: worker w gets its next planned task
// if (and only if) that task's dependencies have released. In Hybrid
// mode an idle worker additionally drains the fallback's diverted pool.
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	s.mu.Lock()
	var picked *runtime.Task
	if s.plan != nil && int(w.ID) < len(s.next) {
		ord := s.plan.Order[w.ID]
		for s.next[w.ID] < len(ord) {
			id := ord[s.next[w.ID]]
			switch s.state[id] {
			case stDone, stDiverted, stInFlight:
				s.next[w.ID]++
				continue
			case stQueued:
				t := s.env.Graph.Tasks[id]
				if !s.env.TryClaim(t) {
					// Claimed elsewhere (a speculation replica won the
					// race); it is no longer ours to place.
					s.state[id] = stInFlight
					s.next[w.ID]++
					continue
				}
				s.state[id] = stInFlight
				s.next[w.ID]++
				picked = t
			}
			break
		}
	}
	s.mu.Unlock()
	if picked != nil {
		return picked
	}
	if s.fallback != nil {
		return s.fallback.Pop(w)
	}
	return nil
}

// TaskDone implements runtime.Scheduler. Effective completions of
// pinned tasks are checked against the slack budget (Hybrid mode);
// completions of diverted tasks are forwarded to the fallback policy.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {
	s.mu.Lock()
	wasDiverted := s.state[t.ID] == stDiverted
	s.state[t.ID] = stDone
	var toPush []*runtime.Task
	if s.mode == Hybrid && !wasDiverted && int(w.ID) < len(s.dead) && !s.dead[w.ID] {
		budget := (s.slack() - 1) * s.plan.Makespan
		if s.env.EndAt(t) > s.plan.Finish[t.ID]+budget {
			toPush = s.divertLocked(w.ID, RepairSlack, t.ID, false)
		}
	}
	s.mu.Unlock()
	if wasDiverted {
		s.fallback.TaskDone(t, w)
	}
	for _, d := range toPush {
		s.fallback.Push(d)
	}
}

// WorkerDown implements runtime.FaultObserver: the engine killed worker
// w. In Hybrid mode every remaining planned task of w — including the
// aborted in-flight attempt the engine is about to roll back and
// re-Push — diverts to the fallback. In Static mode the plan is kept
// pinned and the stranded frontier surfaces as an engine error.
func (s *Sched) WorkerDown(w runtime.WorkerInfo) {
	s.mu.Lock()
	if s.plan == nil || int(w.ID) >= len(s.dead) || s.dead[w.ID] {
		s.mu.Unlock()
		return
	}
	s.dead[w.ID] = true
	var toPush []*runtime.Task
	if s.mode == Hybrid {
		toPush = s.divertLocked(w.ID, RepairKill, -1, true)
	}
	s.mu.Unlock()
	for _, d := range toPush {
		s.fallback.Push(d)
	}
	if fo, ok := s.fallback.(runtime.FaultObserver); ok {
		fo.WorkerDown(w)
	}
}

// divertLocked re-routes worker w's remaining planned tasks to the
// fallback, logs the covering RepairEvent, and returns the
// already-released tasks the caller must Push to the fallback (outside
// s.mu). In-flight attempts are included only when the worker died
// (their abort re-Pushes them through the fault-recovery rollback
// path); on a slack repair they are left to finish in place.
func (s *Sched) divertLocked(w platform.UnitID, reason RepairReason, trigger int64, includeInFlight bool) []*runtime.Task {
	ev := RepairEvent{At: s.env.Now(), Worker: w, Reason: reason, Trigger: trigger}
	var toPush []*runtime.Task
	for _, id := range s.plan.Order[w] {
		switch s.state[id] {
		case stQueued:
			toPush = append(toPush, s.env.Graph.Tasks[id])
		case stUnready:
			// Routed to the fallback when its Push arrives.
		case stInFlight:
			if !includeInFlight {
				continue
			}
		default:
			continue
		}
		s.state[id] = stDiverted
		ev.Tasks = append(ev.Tasks, id)
	}
	if len(ev.Tasks) > 0 {
		s.repairs = append(s.repairs, ev)
	}
	return toPush
}
