// Package spec implements straggler mitigation by speculative task
// replication, in the spirit of the backup-task mechanisms of MapReduce
// and of STOMP-style policy-level reaction to slow units: when a running
// attempt of a task exceeds a slack factor times its expected duration
// (taken from the same performance model the schedulers estimate with),
// the attempt is flagged as a straggler and a replica of the task is
// launched through the scheduler's ordinary Push path. The first attempt
// to complete wins; every other live attempt of the task is cancelled,
// and a cancelled attempt never publishes its writes.
//
// The package owns the engine-agnostic half of the mechanism: the
// policy knobs (Policy), the per-run attempt-lifecycle bookkeeping and
// first-success-wins arbitration (Controller), and the speculation
// counters (Stats, mirrored to an obs.Probe). The engine-specific half
// — how an attempt is actually interrupted — lives with each engine:
// the simulator cancels the loser's completion event and rolls its
// resources back through the same abortAcquire path fault kills use;
// the threaded engine cannot preempt a goroutine, so the loser runs to
// completion and its completion is discarded, mirroring the kill-timer
// semantics.
//
// Attempt lifecycle (per task):
//
//	           Push                     Pop
//	ready ───────────► queued ───────────────► staging ──► running
//	                      ▲                       │            │
//	  flag (TryFlag)      │                  cancel/kill   finish
//	running ──────────────┘ (replica)             │            │
//	                                              ▼            ▼
//	                                         rolled back   Effective?
//	                                                       yes → done, cancel siblings
//	                                                       no  → completion discarded (Cancelled)
//
// A Controller is not safe for concurrent use: the simulator drives it
// from the single event-loop goroutine, the threaded engine under its
// run mutex.
package spec

import "multiprio/internal/obs"

// Defaults for Policy knobs left at zero.
const (
	// DefaultSlackFactor flags an attempt when its elapsed time exceeds
	// twice the model's expectation.
	DefaultSlackFactor = 2.0
	// DefaultMaxReplicas allows one speculative replica per task.
	DefaultMaxReplicas = 1
)

// Policy is the speculation configuration carried by a fault.Plan, so
// that straggler studies are reproducible from the same seed-derived
// plan that injects the slowdowns.
type Policy struct {
	// Enabled turns the speculation controller on.
	Enabled bool
	// SlackFactor is the straggler threshold: an attempt is flagged when
	// its elapsed time exceeds SlackFactor × expected duration. Values
	// <= 1 mean DefaultSlackFactor (a factor of 1 would flag every task
	// whose duration merely meets the model).
	SlackFactor float64
	// MinExpected suppresses speculation for tasks whose expected
	// duration is below this many seconds: replicating near-instant
	// kernels costs more than it saves. 0 disables the filter.
	MinExpected float64
	// MaxReplicas caps speculative replicas per task. 0 means
	// DefaultMaxReplicas.
	MaxReplicas int
}

// Slack returns the effective straggler slack factor.
func (p Policy) Slack() float64 {
	if p.SlackFactor <= 1 {
		return DefaultSlackFactor
	}
	return p.SlackFactor
}

// ReplicaCap returns the effective per-task replica budget.
func (p Policy) ReplicaCap() int {
	if p.MaxReplicas <= 0 {
		return DefaultMaxReplicas
	}
	return p.MaxReplicas
}

// Stats summarizes speculation activity over one run.
type Stats struct {
	// Flagged counts attempts detected as stragglers.
	Flagged int
	// Launched counts replicas pushed through the scheduler. It can be
	// lower than Flagged when the per-task budget was already spent.
	Launched int
	// ReplicaWins counts tasks whose effective completion came from a
	// speculative replica rather than the original attempt.
	ReplicaWins int
	// Cancelled counts attempts cancelled by first-success-wins
	// arbitration (either side: a beaten original or a beaten replica).
	Cancelled int
	// WastedWork is the busy time, in engine seconds, burned by
	// cancelled attempts — the price paid for the makespan insurance.
	WastedWork float64
}

// Controller is the per-run speculation state machine shared by both
// engines. Engines report attempt starts, completions and straggler
// candidates; the controller arbitrates first-success-wins, enforces
// the replica budget, accumulates Stats and mirrors them to the probe
// as counter tracks (spec.flagged, spec.launched, spec.won,
// spec.cancelled, spec.wasted).
type Controller struct {
	pol   Policy
	probe obs.Probe
	now   func() float64
	seq   func() int64

	launched map[int64]int
	done     map[int64]bool

	// Stats accumulates the run's speculation counters.
	Stats Stats
}

// New builds a controller for one run. now and seq stamp the probe's
// counter samples (pass the engine's clock and linearization sequencer;
// nil defaults to zero stamps). probe may be nil.
func New(pol Policy, probe obs.Probe, now func() float64, seq func() int64) *Controller {
	if now == nil {
		now = func() float64 { return 0 }
	}
	if seq == nil {
		seq = func() int64 { return 0 }
	}
	return &Controller{
		pol:      pol,
		probe:    probe,
		now:      now,
		seq:      seq,
		launched: make(map[int64]int),
		done:     make(map[int64]bool),
	}
}

func (c *Controller) counter(track string, v float64) {
	if c.probe != nil {
		c.probe.Counter(track, c.now(), c.seq(), v)
	}
}

// Eligible reports whether a task with the given expected duration may
// be speculated at all: the model must have a finite positive
// expectation at least MinExpected long.
func (c *Controller) Eligible(expected float64) bool {
	return expected > 0 && expected >= c.pol.MinExpected
}

// Deadline returns the elapsed time past which an attempt with the
// given expected duration counts as a straggler.
func (c *Controller) Deadline(expected float64) float64 {
	return c.pol.Slack() * expected
}

// TryFlag records a straggler detection for the task and reports
// whether a replica should be launched: the task must not be done and
// its replica budget must not be spent. A true return consumes one
// replica slot.
func (c *Controller) TryFlag(task int64) bool {
	if c.done[task] || c.launched[task] >= c.pol.ReplicaCap() {
		return false
	}
	c.Stats.Flagged++
	c.Stats.Launched++
	c.launched[task]++
	c.counter("spec.flagged", float64(c.Stats.Flagged))
	c.counter("spec.launched", float64(c.Stats.Launched))
	return true
}

// Effective arbitrates a completed attempt: the first completion of a
// task wins (returns true and marks the task done); every later
// completion must be discarded by the engine (returns false). replica
// says whether the completing attempt was a speculative replica.
func (c *Controller) Effective(task int64, replica bool) bool {
	if c.done[task] {
		return false
	}
	c.done[task] = true
	if replica {
		c.Stats.ReplicaWins++
		c.counter("spec.won", float64(c.Stats.ReplicaWins))
	}
	return true
}

// Done reports whether the task already has an effective completion.
func (c *Controller) Done(task int64) bool { return c.done[task] }

// CancelAttempt records the cancellation of a losing attempt that had
// burned busy engine seconds of work.
func (c *Controller) CancelAttempt(task int64, busy float64) {
	c.Stats.Cancelled++
	if busy > 0 {
		c.Stats.WastedWork += busy
	}
	c.counter("spec.cancelled", float64(c.Stats.Cancelled))
	c.counter("spec.wasted", c.Stats.WastedWork)
}

// Retired releases the done-map entry of a task; engines may call it on
// rollback when a task must run again from scratch (all attempts were
// killed before an effective completion). It is a no-op for done tasks.
func (c *Controller) Retired(task int64) {
	if !c.done[task] {
		delete(c.launched, task)
	}
}
