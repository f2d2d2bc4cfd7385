package oracle

import (
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/heft"
)

// StaticCheck configures validation of static-plan replay runs (the
// heft family): every effective attempt must have run on its planned
// worker, in the planned per-worker order, unless a logged repair event
// covers the task — and every repair event must itself be justified,
// either by an applied kill of its worker or by a measured-slack
// violation of its trigger task. Forged repairs (a diversion the
// environment never warranted) and silent deviations (a task running
// off-plan with no covering repair) are both violations.
type StaticCheck struct {
	// Assignment[t] is the planned worker of task t; Order[w] the
	// planned task order of worker w; Finish[t] the model-predicted
	// finish the slack rule measures drift against; Makespan the
	// planned makespan that scales the slack budget.
	Assignment []platform.UnitID
	Order      [][]int64
	Finish     []float64
	Makespan   float64
	// SlackFactor is the hybrid policy's drift budget: a slack repair is
	// justified only if its trigger task's effective finish exceeds
	// Finish[trigger] + (SlackFactor−1) × Makespan.
	SlackFactor float64
	// Repairs are the deviation repairs the scheduler logged.
	Repairs []heft.RepairEvent
	// Kills are the kill events the engine reports having applied;
	// kill-reason repairs must name a worker that actually died.
	Kills []runtime.AppliedKill
}

// StaticCheckFor builds the StaticCheck validating the run s just
// replayed, from the plan it computed and the repairs it logged. Pass
// the engine's applied kills (Result.Faults.AppliedKills; nil for
// fault-free runs). The import points this way because heft must stay
// free of oracle: oracle's tests blank-import the scheduler registry.
func StaticCheckFor(s *heft.Sched, kills []runtime.AppliedKill) *StaticCheck {
	p := s.Plan()
	return &StaticCheck{
		Assignment:  p.Assignment,
		Order:       p.Order,
		Finish:      p.Finish,
		Makespan:    p.Makespan,
		SlackFactor: s.EffectiveSlackFactor(),
		Repairs:     s.Repairs(),
		Kills:       kills,
	}
}

// checkStatic validates the static-replay invariants. It runs after
// checkSpans, so every task has exactly one effective span.
func (c *checker) checkStatic() {
	sc := c.opts.Static
	n := len(c.g.Tasks)
	if len(sc.Assignment) != n || len(sc.Finish) != n {
		c.failf("oracle: static plan covers %d tasks, graph has %d", len(sc.Assignment), n)
		return
	}

	// The plan itself must be well-formed: every task appears exactly
	// once, in the order list of exactly its assigned worker.
	slot := make(map[int64]int, n)
	for w, ord := range sc.Order {
		for i, id := range ord {
			if id < 0 || id >= int64(n) {
				c.failf("oracle: static plan orders unknown task %d on worker %d", id, w)
				continue
			}
			if _, dup := slot[id]; dup {
				c.failf("oracle: static plan lists task %d twice", id)
				continue
			}
			if sc.Assignment[id] != platform.UnitID(w) {
				c.failf("oracle: static plan orders task %d on worker %d but assigns it to %d", id, w, sc.Assignment[id])
			}
			slot[id] = i
		}
	}
	if len(slot) != n {
		c.failf("oracle: static plan orders %d tasks, graph has %d", len(slot), n)
	}

	// First kill instant per worker, for repair justification.
	killAt := make(map[platform.UnitID]float64, len(sc.Kills))
	for _, k := range sc.Kills {
		if at, ok := killAt[k.Unit]; !ok || k.At < at {
			killAt[k.Unit] = k.At
		}
	}

	// Each repair must be justified, and each task diverted at most
	// once; divertedAt records when a task's deviation became licensed.
	divertedAt := make(map[int64]float64, 8)
	for ri, r := range sc.Repairs {
		switch r.Reason {
		case heft.RepairKill:
			at, killed := killAt[r.Worker]
			if !killed {
				c.failf("oracle: repair %d claims worker %d was killed, but no kill was applied there", ri, r.Worker)
			} else if at > r.At+c.opts.Eps {
				c.failf("oracle: repair %d at %g predates worker %d's kill at %g", ri, r.At, r.Worker, at)
			}
		case heft.RepairSlack:
			sf := sc.SlackFactor
			if sf <= 1 {
				c.failf("oracle: repair %d is slack-justified but the check carries slack factor %g", ri, sf)
				break
			}
			ts := c.spanOf[r.Trigger]
			if ts == nil || r.Trigger < 0 || r.Trigger >= int64(n) {
				c.failf("oracle: repair %d names unknown trigger task %d", ri, r.Trigger)
				break
			}
			budget := sc.Finish[r.Trigger] + (sf-1)*sc.Makespan
			// Eps forgives clock-granularity jitter around the boundary:
			// only a trigger clearly inside its budget forges the repair.
			if ts.End < budget-c.opts.Eps {
				c.failf("oracle: repair %d claims slack on task %d, but it finished at %g within the %g budget",
					ri, r.Trigger, ts.End, budget)
			}
		default:
			c.failf("oracle: repair %d has unknown reason %q", ri, r.Reason)
		}
		if len(r.Tasks) == 0 {
			c.failf("oracle: repair %d diverts no tasks", ri)
		}
		for _, id := range r.Tasks {
			if id < 0 || id >= int64(n) {
				c.failf("oracle: repair %d diverts unknown task %d", ri, id)
				continue
			}
			if sc.Assignment[id] != r.Worker {
				c.failf("oracle: repair %d on worker %d diverts task %d planned on worker %d",
					ri, r.Worker, id, sc.Assignment[id])
			}
			if _, dup := divertedAt[id]; dup {
				c.failf("oracle: task %d diverted by two repair events", id)
				continue
			}
			divertedAt[id] = r.At
		}
	}

	// Placement: every effective span on its planned worker, unless a
	// repair covers the task — and then the effective run must postdate
	// the repair (a span already under way when the repair fired cannot
	// have been caused by it; kill-diverted in-flight attempts re-run,
	// so their effective span starts at or after the kill).
	for _, t := range c.g.Tasks {
		s := c.spanOf[t.ID]
		at, diverted := divertedAt[t.ID]
		if !diverted {
			if s.Worker != sc.Assignment[t.ID] {
				c.failf("oracle: task %d ran on worker %d, plan assigns worker %d and no repair covers it",
					t.ID, s.Worker, sc.Assignment[t.ID])
			}
			continue
		}
		if s.Start < at-c.opts.Eps {
			c.failf("oracle: diverted task %d started at %g, before its repair at %g", t.ID, s.Start, at)
		}
	}

	// Order: per worker, the effective spans of the non-diverted tasks
	// planned there must run in plan order. Spans on one worker are
	// serialized (checked earlier), so walking the plan order and
	// requiring monotone start times is exactly "executed in plan
	// order": a swap makes some later slot start before an earlier one.
	for w, ord := range sc.Order {
		prevID := int64(-1)
		var prevStart float64
		for _, id := range ord {
			if _, d := divertedAt[id]; d {
				continue
			}
			s := c.spanOf[id]
			if s.Worker != platform.UnitID(w) {
				continue // placement violation, already reported
			}
			if prevID >= 0 && s.Start < prevStart-c.opts.Eps {
				c.failf("oracle: worker %d ran task %d before task %d, against plan order", w, id, prevID)
			}
			prevID, prevStart = id, s.Start
		}
	}
}
