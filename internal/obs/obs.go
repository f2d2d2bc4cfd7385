// Package obs is the scheduler-internals observability layer: a probe
// interface the execution engines and scheduling policies call at their
// decision points, plus consumers that turn the event stream into a
// deterministic decision log, time-series counter tracks, and Perfetto
// tooltip context.
//
// The paper explains MultiPrio's wins by reading StarVZ traces (Fig. 4
// idle shares, the Section V eviction/locality discussion), but a task
// trace only records *what* ran. The probe records *why*: per-push gain
// scores and best/second-best deltas (Eq. 1), per-pop LS_SDH² locality
// picks (Eq. 3), evict-and-retry churn (Algorithm 2), dmdas HEFT
// mappings, and the simulator's memory pressure over time.
//
// Design constraints, in priority order:
//
//  1. Observation must never perturb scheduling. Probes are read-only:
//     they receive the engine's simulated time and its *current*
//     linearization sequence but never advance it. The canonical-trace
//     SHA-256 goldens are byte-identical with a probe attached
//     (TestCanonicalTraceGoldenProbed).
//  2. Nil must be free. Every instrumentation site is guarded by a
//     single pointer nil-check and computes event payloads only behind
//     it, so the disabled cost is unmeasurable (the AllocsPerRun tests
//     beside the instrumented hot paths — sim.TestObservedRunAllocationPin,
//     core.TestPushPopAllocationFree — pin it at no allocation).
//  3. The decision stream must be deterministic under the simulator, so
//     the decision log is golden-testable exactly like
//     trace.WriteCanonical.
//
// The package depends on nothing but the standard library: identities
// (worker, memory node, architecture) are plain ints so that
// internal/runtime can hold a Probe in its Env without an import cycle
// through internal/trace.
package obs

// DecisionKind classifies scheduler decision events.
type DecisionKind uint8

const (
	// PushBest is the task-level summary of MultiPrio's PUSH
	// (Algorithm 1): Arch is the fastest eligible architecture, N the
	// number of eligible architectures, A = δ(t, best), B = δ(t, second
	// best) (+Inf encoded as-is when only one architecture qualifies).
	PushBest DecisionKind = iota + 1
	// PushScore is one heap insertion of MultiPrio's PUSH: the task was
	// scored into the heap of memory node Mem (whose dominant
	// architecture is Arch) with A = gain (Eq. 1) and B = normalized NOD
	// criticality (Eq. 2; 0 when the criticality tie-break is disabled).
	PushScore
	// PopSelect is a successful POP: Worker took Task from node Mem's
	// queue. N is the number of evict-retries that preceded the
	// selection in this Pop call, A the LS_SDH² locality score of the
	// task on Mem (Eq. 3). For dmdas-family schedulers N is the index
	// in the mapped FIFO/priority queue (non-zero = a data-ready task
	// bypassed the head) and A is 0.
	PopSelect
	// PopEvict is a pop-condition failure (Algorithm 2): Task was
	// evicted from node Mem's heap, duplicates elsewhere survive. N is
	// the retry index, A the steal cost charged to Worker (δ × speed
	// factor), B the best architecture's remaining-work horizon the
	// cost was compared against.
	PopEvict
	// PopStale is a stale duplicate discarded during the top-n locality
	// scan: the heap still listed Task on Mem but the task was already
	// claimed through another node's heap.
	PopStale
	// MapTask is a dmdas-family PUSH (the HEFT step): Task was mapped
	// to Worker with A = expected completion time, B = the execution
	// estimate added to the worker's load, C = the transfer estimate
	// for the worker's memory node (0 for the dm variant).
	MapTask
	// TaskDone is the engine-level effective completion of a task —
	// emitted by the engines themselves, not a policy, so it appears for
	// every scheduler. At is the completion instant, Worker/Mem/Arch the
	// unit that ran the winning attempt, A the kernel start time and B
	// the instant the task was offered to the scheduler (its ReadyAt).
	// Queue time is therefore A−B and sojourn time At−B, which is what
	// the telemetry layer's per-tenant histograms record live.
	TaskDone
)

// String returns the short canonical name of the kind.
func (k DecisionKind) String() string {
	switch k {
	case PushBest:
		return "push"
	case PushScore:
		return "score"
	case PopSelect:
		return "pop"
	case PopEvict:
		return "evict"
	case PopStale:
		return "stale"
	case MapTask:
		return "map"
	case TaskDone:
		return "done"
	default:
		return "?"
	}
}

// Decision is one scheduler decision event. Fields not applicable to a
// kind are -1 (identities) or 0 (scalars); the per-kind meaning of N,
// A, B and C is documented on the DecisionKind constants.
type Decision struct {
	Kind DecisionKind
	// At is the engine's time when the decision was made: simulated
	// seconds under internal/sim, wall-clock seconds since run start
	// under the threaded engine.
	At float64
	// Seq is the engine's last-assigned linearization sequence number
	// at the time of the event (see trace.Span.StartSeq). Probes only
	// read the sequencer — observation never advances it. Zero under
	// engines without a sequencer.
	Seq int64
	// Task is the task ID the decision concerns.
	Task int64
	// Worker, Mem and Arch identify the processing unit, memory node
	// and architecture involved; -1 when not applicable.
	Worker, Mem, Arch int
	// N is a kind-specific small count (retry index, queue position,
	// eligible-architecture count).
	N int
	// A, B, C are kind-specific scalars.
	A, B, C float64
}

// Probe receives scheduler decision events and counter samples. A nil
// Probe disables observation; every call site guards with a nil check
// so the disabled path costs one predictable branch.
//
// Implementations must be safe for concurrent use: the threaded engine
// invokes schedulers — and therefore probes — from many worker
// goroutines. Under the simulator all calls arrive from the single
// event-loop goroutine in deterministic order.
type Probe interface {
	// Decision records one scheduler decision event.
	Decision(d Decision)
	// Counter records one sample of the named time-series track. Track
	// names are stable identifiers like "mem.used[gpu0]" or
	// "multiprio.ready[ram]"; at and seq are stamped like Decision.At
	// and Decision.Seq.
	Counter(track string, at float64, seq int64, value float64)
}

// Multi fans out every event to each member probe, in order. It lets
// one run feed a DecisionLog and a Metrics recorder at once.
type Multi []Probe

// Decision implements Probe.
func (m Multi) Decision(d Decision) {
	for _, p := range m {
		p.Decision(d)
	}
}

// Counter implements Probe.
func (m Multi) Counter(track string, at float64, seq int64, value float64) {
	for _, p := range m {
		p.Counter(track, at, seq, value)
	}
}

// Combine fans the non-nil probes into one. It returns nil when every
// argument is nil and the sole probe unwrapped, so engines can merge a
// user probe with an internal one (watchdog tail, telemetry) without
// paying a fan-out layer in the common single-probe case.
func Combine(ps ...Probe) Probe {
	var out Multi
	for _, p := range ps {
		if p != nil {
			out = append(out, p)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
