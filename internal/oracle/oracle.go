// Package oracle is the execution-validity authority of the repository:
// given an application graph and the trace of a finished run (simulated
// or threaded), it asserts that the run was *correct* irrespective of
// the scheduling policy that produced it.
//
// The invariants, in the spirit of the validity oracles of
// simulator-based scheduling frameworks (HeSP, STOMP):
//
//   - every submitted task executed exactly once;
//   - every task ran on an architecture for which it has a finite cost;
//   - start times respect every inferred dependency (a task never
//     starts before all predecessors ended);
//   - tasks sharing a Commute-mode handle never overlap in kernel time
//     (the engines' execution-time mutual exclusion);
//   - one worker never runs two kernels at once;
//   - the reported makespan equals the latest span end;
//   - when the trace carries memory events (simulator runs with
//     CollectMemEvents), a full coherence replay: every read observes
//     the last writer's version of each handle, replica allocations and
//     frees balance, and node capacities are never exceeded beyond the
//     overflow the engine itself reported;
//   - on multi-node cluster machines (platform.NewCluster), inter-node
//     transfer replay: a value read on a different node than it was
//     produced on must have traversed the interconnect as a recorded
//     transfer, and no cross-node transfer beats its link time.
//
// The oracle is pure observation: it never mutates the graph or trace.
package oracle

import (
	"errors"
	"fmt"
	"sort"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/trace"
)

// Options tunes a conformance check.
type Options struct {
	// Eps is the tolerance for timestamp comparisons. The discrete-event
	// simulator is exact (0 works); wall-clock engines may pass a small
	// slack for clock granularity.
	Eps float64
	// OverflowBytes is the per-node memory overflow the simulator itself
	// reported (sim.Result.OverflowBytes). The capacity replay tolerates
	// overshoot only on nodes with a non-zero reported overflow; nil
	// means any overshoot is a violation.
	OverflowBytes []int64
	// Faults switches the oracle from exactly-once to
	// exactly-once-effective validation for fault-injected runs. Nil
	// (the default) keeps the strict rule: any failed span in the trace
	// is a violation.
	Faults *FaultCheck
	// Spec enables validation of speculative straggler mitigation:
	// cancelled attempts are allowed (and checked), every task still has
	// exactly one effective completion, and a cancelled attempt never
	// supersedes it. Nil keeps the strict rule: any cancelled span is a
	// violation.
	Spec *SpecCheck
	// Stream enables validation of streaming (online-ingestion) runs:
	// arrival gating, per-tenant exactly-once, the admission-control
	// in-flight bound, and the no-cross-tenant-starvation replay. Nil
	// skips the streaming invariants (batch runs).
	Stream *StreamCheck
	// Static enables validation of static-plan replay runs: every
	// effective attempt on its planned worker in plan order unless a
	// justified repair event covers the task (static.go). Nil skips it
	// (dynamic runs have no plan to conform to).
	Static *StaticCheck
}

// FaultCheck configures exactly-once-effective validation: failed
// attempts are allowed, every task must still have exactly one
// successful execution, and dependencies are honored by every attempt
// (a retry may only have started after all predecessors' successful
// completions).
type FaultCheck struct {
	// MaxRetries bounds the failed attempts per task (the fault plan's
	// retry cap); more is a violation.
	MaxRetries int
	// Kills are the kill events the engine reports having applied
	// (Result.Faults.AppliedKills). No successful span on a killed
	// worker may end after the kill.
	Kills []runtime.AppliedKill
	// Strict additionally requires that nothing at all runs on a
	// killed worker past the kill instant: failed attempts end exactly
	// at it and no span starts after it. The simulator guarantees this;
	// the threaded engine's completion-discard semantics cannot (a
	// kernel goroutine finishes its function after the kill and only
	// then learns its completion is discarded), so leave Strict false
	// for threaded runs.
	Strict bool
}

// SpecCheck configures validation of speculation runs. A trace may then
// carry Cancelled spans — attempts beaten by first-success-wins
// arbitration — which participate in every structural invariant
// (dependencies, commute exclusivity, worker serialization) but never
// count as the task's execution: the effective span alone carries the
// published completion, and every cancelled attempt of a task must end
// at or after it (a loser is only ever cancelled once a winner finished;
// a cancelled span ending earlier means the engine discarded a
// completion that should have won).
type SpecCheck struct {
	// MaxReplicas bounds the cancelled attempts per task (the
	// speculation policy's per-task replica cap): a task gains at most
	// MaxReplicas extra attempts, exactly one attempt wins, so more than
	// MaxReplicas cancellations means the budget was violated. 0 means
	// unbounded.
	MaxReplicas int
}

// maxViolations bounds the error report; past this the run is broken
// enough that more detail does not help.
const maxViolations = 25

type checker struct {
	g    *runtime.Graph
	tr   *trace.Trace
	m    *platform.Machine
	opts Options

	// spanOf maps each task to its successful span; failed attempts
	// (fault mode only) are collected per task in attemptsOf, cancelled
	// speculation losers (spec mode only) in cancelledOf.
	spanOf      map[int64]*trace.Span
	attemptsOf  map[int64][]*trace.Span
	cancelledOf map[int64][]*trace.Span
	errs        []error
}

func (c *checker) failf(format string, args ...any) {
	if len(c.errs) < maxViolations {
		c.errs = append(c.errs, fmt.Errorf(format, args...))
	} else if len(c.errs) == maxViolations {
		c.errs = append(c.errs, errors.New("oracle: further violations suppressed"))
	}
}

// Check validates the finished run recorded in tr against the graph it
// executed. It returns nil when every invariant holds, or an error
// joining every violation found.
func Check(g *runtime.Graph, tr *trace.Trace, opts Options) error {
	if tr == nil || tr.Machine == nil {
		return errors.New("oracle: trace without machine")
	}
	c := &checker{g: g, tr: tr, m: tr.Machine, opts: opts}
	c.checkSpans()
	if len(c.errs) == 0 {
		// The remaining invariants read spans by task; they only make
		// sense once every task has exactly one well-formed successful
		// span.
		c.checkDependencies()
		c.checkCommuteExclusivity()
		c.checkWorkerSerialization()
		c.checkMakespan()
		if opts.Faults != nil {
			c.checkFaults()
		}
		if opts.Spec != nil {
			c.checkSpecs()
		}
		if opts.Stream != nil {
			c.checkStream()
		}
		if opts.Static != nil {
			c.checkStatic()
		}
		if len(tr.MemEvents) > 0 {
			c.replayMemory()
			if c.m.NumNodes() > 1 {
				// Multi-node run: additionally require that every value
				// crossing nodes traversed an interconnect transfer, and
				// that no transfer beat its link time (cluster.go).
				c.checkCluster()
			}
		}
	}
	return errors.Join(c.errs...)
}

// checkSpans verifies the exactly-once(-effective) property: one
// successful span per task. Failed attempts are tolerated only in fault
// mode, cancelled ones only in speculation mode. The run's own state
// (claims, execution records) is the engine's, not the trace's: the
// conformance suite checks it against the spans.
func (c *checker) checkSpans() {
	c.spanOf = make(map[int64]*trace.Span, len(c.tr.Spans))
	c.attemptsOf = make(map[int64][]*trace.Span)
	c.cancelledOf = make(map[int64][]*trace.Span)
	taskByID := make(map[int64]*runtime.Task, len(c.g.Tasks))
	for _, t := range c.g.Tasks {
		taskByID[t.ID] = t
	}
	for i := range c.tr.Spans {
		s := &c.tr.Spans[i]
		t, known := taskByID[s.TaskID]
		if !known {
			c.failf("oracle: span for unknown task %d", s.TaskID)
			continue
		}
		if s.Worker < 0 || int(s.Worker) >= len(c.m.Units) {
			c.failf("oracle: task %d ran on unknown worker %d", s.TaskID, s.Worker)
			continue
		}
		if s.End < s.Start-c.opts.Eps || s.Start < -c.opts.Eps {
			c.failf("oracle: task %d has inverted span [%g, %g]", s.TaskID, s.Start, s.End)
		}
		if s.Wait < 0 || s.Wait > s.End-s.Start+c.opts.Eps {
			c.failf("oracle: task %d has wait %g outside its span [%g, %g]", s.TaskID, s.Wait, s.Start, s.End)
		}
		arch := c.m.Units[s.Worker].Arch
		if cost, ok := t.BaseCost(arch); !ok {
			c.failf("oracle: task %d (%s) ran on arch %s without a finite cost", t.ID, t.Kind(), c.m.ArchName(arch))
		} else if cost <= 0 {
			c.failf("oracle: task %d (%s) has non-positive cost %g on arch %s", t.ID, t.Kind(), cost, c.m.ArchName(arch))
		}
		if s.Failed && s.Cancelled {
			c.failf("oracle: task %d has a span marked both failed and cancelled", s.TaskID)
			continue
		}
		if s.Failed {
			if c.opts.Faults == nil {
				c.failf("oracle: task %d has a failed attempt but fault checking is not enabled", s.TaskID)
				continue
			}
			c.attemptsOf[s.TaskID] = append(c.attemptsOf[s.TaskID], s)
			continue
		}
		if s.Cancelled {
			if c.opts.Spec == nil {
				c.failf("oracle: task %d has a cancelled attempt but speculation checking is not enabled", s.TaskID)
				continue
			}
			c.cancelledOf[s.TaskID] = append(c.cancelledOf[s.TaskID], s)
			continue
		}
		if prev, dup := c.spanOf[s.TaskID]; dup {
			c.failf("oracle: task %d executed successfully twice (spans on workers %d and %d)", s.TaskID, prev.Worker, s.Worker)
			continue
		}
		c.spanOf[s.TaskID] = s
	}
	for _, t := range c.g.Tasks {
		if _, ok := c.spanOf[t.ID]; !ok {
			c.failf("oracle: task %d (%s) never executed successfully", t.ID, t.Kind())
		}
	}
}

// checkDependencies verifies that no task started before every
// predecessor's successful completion — for every attempt, including
// failed and cancelled ones: an engine may only hand a task (or its
// retry or replica) to a worker once its dependencies are effectively
// done.
func (c *checker) checkDependencies() {
	for _, t := range c.g.Tasks {
		spans := append(append(c.attemptsOf[t.ID], c.cancelledOf[t.ID]...), c.spanOf[t.ID])
		for _, p := range c.g.Preds(t) {
			ps := c.spanOf[int64(p)]
			for _, s := range spans {
				if ps.End > s.Start+c.opts.Eps {
					c.failf("oracle: dependency violated: task %d ends at %g after successor %d starts at %g",
						p, ps.End, t.ID, s.Start)
				}
			}
		}
	}
}

// kernelStart is the instant the kernel actually began computing: the
// span start plus the transfer wait.
func kernelStart(s *trace.Span) float64 { return s.Start + s.Wait }

// checkCommuteExclusivity verifies that commutative updaters of one
// handle never overlapped in kernel time: they carry no dependency
// edges among themselves, so exclusivity is purely the engines'
// execution-time locking.
func (c *checker) checkCommuteExclusivity() {
	byHandle := make(map[int32][]*trace.Span)
	var hs []int32
	for _, t := range c.g.Tasks {
		hs = t.CommuteHandles(hs[:0])
		for _, h := range hs {
			byHandle[h] = append(byHandle[h], c.spanOf[t.ID])
			// Failed and cancelled attempts held the commute locks from
			// kernel start to the abort/cancellation, so they
			// participate in exclusivity too.
			byHandle[h] = append(byHandle[h], c.attemptsOf[t.ID]...)
			byHandle[h] = append(byHandle[h], c.cancelledOf[t.ID]...)
		}
	}
	for h, spans := range byHandle {
		sort.Slice(spans, func(i, j int) bool { return kernelStart(spans[i]) < kernelStart(spans[j]) })
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			if prev.End > kernelStart(cur)+c.opts.Eps {
				c.failf("oracle: commute exclusivity violated on handle %d: task %d computes until %g, task %d starts at %g",
					h, prev.TaskID, prev.End, cur.TaskID, kernelStart(cur))
			}
		}
	}
}

// checkWorkerSerialization verifies that each worker ran one task at a
// time (full spans, including transfer wait, must not interleave).
func (c *checker) checkWorkerSerialization() {
	byWorker := make(map[platform.UnitID][]*trace.Span)
	for i := range c.tr.Spans {
		s := &c.tr.Spans[i]
		byWorker[s.Worker] = append(byWorker[s.Worker], s)
	}
	for w, spans := range byWorker {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			if prev.End > cur.Start+c.opts.Eps {
				c.failf("oracle: worker %d overlap: task %d runs [%g, %g], task %d starts at %g",
					w, prev.TaskID, prev.Start, prev.End, cur.TaskID, cur.Start)
			}
		}
	}
}

// checkMakespan verifies the reported makespan is exactly the latest
// effective span end. Failed attempts do not contribute (the retry that
// supersedes one always ends later); neither do cancelled ones in the
// simulator, where a loser's span is cut at the winner's completion —
// the threaded engine's losers run to the end of their kernel, so there
// a cancelled span may outlast the makespan and the engines agree only
// on the effective reading.
func (c *checker) checkMakespan() {
	var last float64
	for i := range c.tr.Spans {
		if s := &c.tr.Spans[i]; !s.Failed && !s.Cancelled && s.End > last {
			last = s.End
		}
	}
	if diff(last, c.tr.Makespan) > c.opts.Eps {
		c.failf("oracle: makespan %g does not equal latest span end %g", c.tr.Makespan, last)
	}
}

// checkFaults validates the exactly-once-effective extras: the retry
// budget and the applied kills.
func (c *checker) checkFaults() {
	fc := c.opts.Faults
	if fc.MaxRetries > 0 {
		for id, attempts := range c.attemptsOf {
			if len(attempts) > fc.MaxRetries {
				c.failf("oracle: task %d failed %d times, over the %d retry budget", id, len(attempts), fc.MaxRetries)
			}
		}
	}
	// First kill instant per worker (a worker dies once, but be robust
	// to plans listing several).
	killAt := make(map[platform.UnitID]float64, len(fc.Kills))
	for _, k := range fc.Kills {
		if at, ok := killAt[k.Unit]; !ok || k.At < at {
			killAt[k.Unit] = k.At
		}
	}
	for i := range c.tr.Spans {
		s := &c.tr.Spans[i]
		at, killed := killAt[s.Worker]
		if !killed {
			continue
		}
		if !s.Failed && !s.Cancelled && s.End > at+c.opts.Eps {
			c.failf("oracle: task %d completed on worker %d at %g, after its kill at %g",
				s.TaskID, s.Worker, s.End, at)
		}
		if fc.Strict {
			if s.Start > at+c.opts.Eps {
				c.failf("oracle: task %d started on worker %d at %g, after its kill at %g",
					s.TaskID, s.Worker, s.Start, at)
			}
			if s.End > at+c.opts.Eps && !s.Failed {
				continue // already reported above
			}
			if s.Failed && s.End > at+c.opts.Eps {
				c.failf("oracle: failed attempt of task %d on worker %d ends at %g, after its kill at %g",
					s.TaskID, s.Worker, s.End, at)
			}
		}
	}
}

// checkSpecs validates the speculation extras: the per-task replica
// budget, and first-success-wins ordering — a cancelled attempt may
// only end at or after the task's effective completion, because engines
// cancel losers exactly when a winner finishes (simulator) or discard
// their later completions (threaded). A cancelled span ending strictly
// earlier means an attempt that finished first was discarded anyway,
// i.e. the arbitration was forged.
func (c *checker) checkSpecs() {
	sc := c.opts.Spec
	for id, cs := range c.cancelledOf {
		if sc.MaxReplicas > 0 && len(cs) > sc.MaxReplicas {
			c.failf("oracle: task %d has %d cancelled attempts, over the %d replica budget",
				id, len(cs), sc.MaxReplicas)
		}
		eff := c.spanOf[id]
		for _, s := range cs {
			if s.End < eff.End-c.opts.Eps {
				c.failf("oracle: cancelled attempt of task %d on worker %d ends at %g, before the effective completion at %g (first-success-wins violated)",
					id, s.Worker, s.End, eff.End)
			}
		}
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
