// Package spec configures straggler mitigation by speculative task
// replication, in the spirit of the backup-task mechanisms of MapReduce
// and of STOMP-style policy-level reaction to slow units: when a running
// attempt of a task exceeds a slack factor times its expected duration
// (taken from the same performance model the schedulers estimate with),
// the attempt is flagged as a straggler and a replica of the task is
// launched through the scheduler's ordinary Push path. The first attempt
// to complete wins; every other live attempt of the task is cancelled,
// and a cancelled attempt never publishes its writes.
//
// The package holds the knobs (Policy) and the counters (Stats). The
// mechanism is the run core's (runtime.RunFrame), which keeps every
// attempt of both engines in one table: it arms the deadlines, launches
// the replicas, arbitrates first-success-wins and mirrors Stats to the
// probe as counter tracks (spec.flagged, spec.launched, spec.won,
// spec.cancelled, spec.wasted). How a loser is interrupted is the
// engine's: the simulator rolls it back at once, the threaded engine
// cannot preempt a goroutine, so the loser runs to completion and its
// completion is discarded.
//
// Attempt lifecycle (per task):
//
//	           Push                     Pop
//	ready ───────────► queued ───────────────► staging ──► running
//	                      ▲                       │            │
//	  deadline passed     │                  cancel/kill   finish
//	running ──────────────┘ (replica)             │            │
//	                                              ▼            ▼
//	                                         rolled back   first?
//	                                                       yes → done, cancel siblings
//	                                                       no  → completion discarded (Cancelled)
package spec

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
	// Enabled turns speculation on.
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

// Eligible reports whether a task with the given expected duration may
// be speculated at all: the model must have a finite positive
// expectation at least MinExpected long.
func (p Policy) Eligible(expected float64) bool {
	return expected > 0 && expected >= p.MinExpected
}

// Deadline returns the elapsed time past which an attempt with the
// given expected duration counts as a straggler.
func (p Policy) Deadline(expected float64) float64 {
	return p.Slack() * expected
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
