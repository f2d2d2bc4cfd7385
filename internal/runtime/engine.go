package runtime

import (
	"fmt"
	"io"
	"math"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/obs"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/spec"
	"multiprio/internal/trace"
)

// Engine is the unified entry point of both execution engines: the
// discrete-event simulator (internal/sim) and the threaded engine in
// this package. Engines are built once with symmetric constructors
// (sim.NewEngine, NewThreadedEngine) plus functional options, and each
// Run executes one graph and reports a Result.
type Engine interface {
	// Run executes the graph to completion (or failure) and reports the
	// run. The run writes nothing of the graph: its state comes back as
	// Result.Tasks, and one graph may be run any number of times, on
	// either engine, one run after another or at once. Runs at once need
	// the graph validated first (Graph.Validate): every run validates
	// its graph, and only a first validation writes it.
	Run(g *Graph) (*Result, error)
}

// Result reports one finished run, for either engine. Fields an engine
// does not produce stay at their zero values (the threaded engine has no
// transfers or memory events; times are wall-clock there, virtual in the
// simulator).
type Result struct {
	// Makespan is the completion time of the last task, in seconds.
	Makespan float64
	// Tasks is the run's state, indexed by task ID: each task's execution
	// record and claim.
	Tasks RunState
	// Trace holds every execution span (including failed attempts),
	// transfer, and — when enabled — memory event of the run.
	Trace *trace.Trace
	// OverflowBytes counts allocations accepted beyond a memory node's
	// capacity (memory pressure indicator), per node. Simulator only.
	OverflowBytes []int64
	// Events is the number of discrete events processed (simulator
	// only).
	Events int64
	// Workers reports per-worker execution statistics.
	Workers []WorkerStat
	// Faults summarizes injected faults and the recovery work they
	// caused. All-zero for fault-free runs.
	Faults FaultStats
	// Spec summarizes speculation activity (straggler replication).
	// All-zero when the plan's speculation policy is disabled.
	Spec spec.Stats
	// Stream summarizes per-tenant admission activity when the run's
	// scheduler (or a wrapper around it, like stream.Fair) implements
	// StreamStatsReporter; nil otherwise. Both engines populate it, so
	// telemetry and experiments read admission statistics off the Result
	// instead of reaching into the scheduler.
	Stream *StreamStats
}

// StreamStats is the per-tenant admission summary of a streaming run,
// as the stream.Fair wrapper keeps it. Slices are indexed by tenant;
// Tenants carries the display labels.
type StreamStats struct {
	// Tenants are the tenant display names, index-aligned with the
	// counters below.
	Tenants []string
	// Admitted counts first admissions per tenant (retry re-pushes
	// excluded).
	Admitted []int
	// Deferred counts admissions that waited in the tenant's pending
	// queue behind its in-flight limit.
	Deferred []int
	// MaxPending is the high-water mark of each tenant's pending queue.
	MaxPending []int
}

// StreamStatsReporter is implemented by schedulers (or scheduler
// wrappers) that keep per-tenant admission state. Engines query it once
// after a successful run and publish the snapshot on Result.Stream.
type StreamStatsReporter interface {
	StreamStats() StreamStats
}

// StreamStatsOf snapshots the scheduler's admission statistics, or nil
// when the scheduler does not report them.
func StreamStatsOf(s Scheduler) *StreamStats {
	if r, ok := s.(StreamStatsReporter); ok {
		ss := r.StreamStats()
		return &ss
	}
	return nil
}

// WorkerStat is the per-worker execution summary of a Result.
type WorkerStat struct {
	Unit platform.UnitID
	Name string
	// Busy is the summed span time (successful and failed attempts).
	Busy float64
	// Tasks counts successful task completions.
	Tasks int
	// FailedAttempts counts execution attempts aborted by faults.
	FailedAttempts int
	// CancelledAttempts counts speculation losers run on this worker.
	CancelledAttempts int
	// Dead reports whether the worker was killed by the fault plan.
	Dead bool
}

// AppliedKill records when a KillWorker event actually took effect. In
// the simulator this equals the plan time; in the threaded engine it is
// the wall-clock instant the controller applied it, which the oracle's
// kill checks need because a kernel observed to finish before the
// applied instant legitimately commits.
type AppliedKill struct {
	Unit platform.UnitID
	At   float64
}

// FaultStats summarizes fault injection and recovery over one run.
type FaultStats struct {
	// Kills is the number of worker kills applied.
	Kills int
	// Slowdowns counts the kernels a slowdown window stretched.
	Slowdowns int
	// TransferFailures counts transfers that failed and were re-issued.
	TransferFailures int
	// Retries counts aborted execution attempts (a kernel was running
	// or its data was staged when the fault hit) that were rolled back
	// and re-pushed.
	Retries int
	// LostReplicas counts device replicas invalidated because their
	// memory node lost its last worker.
	LostReplicas int
	// AppliedKills records each kill as it took effect.
	AppliedKills []AppliedKill
}

// RunConfig is the one run configuration of both engines, built by the
// engine constructors from functional options (With…) and stored whole.
// Engines read the fields they implement and ignore the rest. There is
// no field for transfer records: transfers are always recorded.
type RunConfig struct {
	// Estimator is what schedulers see as the performance model. Nil
	// means the engine's default: perfmodel.Oracle in the simulator, the
	// History (if any, else the oracle) in the threaded engine.
	Estimator perfmodel.Estimator
	// History, when non-nil, receives every observed execution time
	// (normalized by the unit speed factor; successful attempts only).
	History *perfmodel.History
	// CollectMemEvents records replica state changes in the trace for
	// the execution oracle's coherence replay (simulator only).
	CollectMemEvents bool
	// MaxEvents aborts runaway simulations; 0 means a generous default.
	MaxEvents int64
	// Pipeline is the per-worker task pipeline depth of the simulator:
	// one computing plus Pipeline-1 staging slots whose transfers overlap
	// the current compute, as StarPU workers do. Default 2.
	Pipeline int
	// Probe receives scheduler decision events and engine counters,
	// stamped with the engine's clock (the threaded engine has no
	// linearization sequencer: Seq stamps are 0 there). Probes are
	// read-only: the canonical trace is byte-identical with one attached.
	Probe obs.Probe
	// Faults, when non-nil and non-empty, injects the fault plan into
	// the run and enables recovery (rollback + retry). The plan also
	// carries the speculation policy (straggler replication). Transfer
	// failures apply to the simulator only; the threaded engine cannot
	// preempt a goroutine, so a killed or losing attempt runs to
	// completion there and its completion is discarded.
	Faults *fault.Plan
	// Watchdog, when its Deadline is set, aborts a wedged run and dumps
	// diagnostics (decision-log tail, per-worker state) instead of
	// letting it hang silently.
	Watchdog Watchdog
	// Arrivals, when non-nil, turns the run into a streaming run: entry
	// i is the submission time of task i (virtual seconds for the
	// simulator, wall-clock seconds for the threaded engine), and the
	// engine never offers a task to the scheduler before both its
	// dependencies are released and its arrival time has passed. Nil —
	// or all zeros — is batch mode: the whole graph is available at
	// t=0. The length must equal the task count.
	Arrivals []float64
	// Observer, when non-nil, receives the run lifecycle: RunStart
	// before the scheduler initializes, every probe event during the
	// run (fanned in beside Probe via obs.Combine), and RunEnd with the
	// Result (or error) once the run finishes. The telemetry layer
	// (internal/telemetry) implements it to keep live metrics and
	// health state without touching any instrumentation site.
	Observer RunObserver
}

// RunInfo describes a run to an observer at RunStart.
type RunInfo struct {
	// Machine is the platform the run executes on.
	Machine *platform.Machine
	// Tasks is the task count of the graph.
	Tasks int
	// Scheduler is the policy name driving the run.
	Scheduler string
	// Engine names the executing engine: "sim" or "threaded".
	Engine string
}

// RunObserver extends obs.Probe with run lifecycle hooks: every Run
// calls RunStart once, before the graph is validated, and RunEnd exactly
// once with the Result (nil on failure) and the run error. Observation must
// stay read-only: the canonical-trace goldens are byte-identical with
// an observer attached, exactly as for plain probes.
type RunObserver interface {
	obs.Probe
	RunStart(info RunInfo)
	RunEnd(res *Result, err error)
}

// Option is a functional option for the engine constructors.
type Option func(*RunConfig)

// WithEstimator sets the performance model the schedulers see.
func WithEstimator(est perfmodel.Estimator) Option {
	return func(c *RunConfig) { c.Estimator = est }
}

// WithHistory attaches a history recording observed execution times.
func WithHistory(h *perfmodel.History) Option {
	return func(c *RunConfig) { c.History = h }
}

// WithMemEvents enables memory-event collection for the oracle replay.
func WithMemEvents() Option { return func(c *RunConfig) { c.CollectMemEvents = true } }

// WithMaxEvents bounds the simulator's event budget.
func WithMaxEvents(n int64) Option { return func(c *RunConfig) { c.MaxEvents = n } }

// WithPipeline sets the simulator's per-worker pipeline depth (one
// computing plus n-1 staging slots).
func WithPipeline(n int) Option { return func(c *RunConfig) { c.Pipeline = n } }

// WithTransferSpans does nothing: transfers are always recorded. Kept
// for benchmark/abi.go's call; it goes with the next [benchmark] PR.
func WithTransferSpans() Option { return func(*RunConfig) {} }

// WithSeed does nothing: the engines are deterministic and have no
// randomness of their own (a run's randomness is its generator's Seed,
// its fault.Spec.Seed or its stream.ArrivalSpec.Seed). Kept for
// benchmark/abi.go's call; it goes with the next [benchmark] PR.
func WithSeed(int64) Option { return func(*RunConfig) {} }

// WithProbe attaches an observation probe.
func WithProbe(p obs.Probe) Option { return func(c *RunConfig) { c.Probe = p } }

// WithFaultPlan injects a fault plan into the run.
func WithFaultPlan(p *fault.Plan) Option { return func(c *RunConfig) { c.Faults = p } }

// WithWatchdog arms the progress watchdog: a run still incomplete after
// the wall-clock deadline is aborted with ErrWatchdog and a diagnostic
// dump (decision-log tail plus per-worker state) is written to the
// watchdog output (os.Stderr unless WithWatchdogOutput overrides it).
func WithWatchdog(deadline time.Duration) Option {
	return func(c *RunConfig) { c.Watchdog.Deadline = deadline }
}

// WithWatchdogOutput redirects the watchdog's diagnostic dump.
func WithWatchdogOutput(w io.Writer) Option {
	return func(c *RunConfig) { c.Watchdog.Out = w }
}

// WithObserver attaches a run observer (see RunObserver): its probe
// half fans in beside any WithProbe probe, and its lifecycle hooks see
// every Run start and end.
func WithObserver(o RunObserver) Option {
	return func(c *RunConfig) { c.Observer = o }
}

// WithArrivals makes the run a streaming run: at[i] is the submission
// time of task i, and the engine holds each task back from the
// scheduler until its arrival time (internal/stream builds arrival
// plans; all-zero arrivals reproduce batch mode exactly).
func WithArrivals(at []float64) Option {
	return func(c *RunConfig) { c.Arrivals = at }
}

// ValidateArrivals checks an arrival plan against a graph: the plan
// must cover every task exactly, and every time must be finite and
// non-negative.
func ValidateArrivals(at []float64, g *Graph) error {
	if at == nil {
		return nil
	}
	if len(at) != len(g.Tasks) {
		return fmt.Errorf("runtime: arrival plan covers %d tasks, graph has %d", len(at), len(g.Tasks))
	}
	for i, a := range at {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("runtime: task %d has invalid arrival time %g", i, a)
		}
	}
	return nil
}

// BuildRunConfig applies opts over the zero config. Engine constructors
// share it.
func BuildRunConfig(opts []Option) RunConfig {
	var c RunConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// TraceFromGraph builds a trace from the execution records of a run's
// state (StartAt/EndAt/RanOn), in task-ID order with no transfer-wait or
// sequencing information, followed by the extra spans (attempts that did
// not become the task's record). The span slice is allocated once, at
// its final size.
func TraceFromGraph(m *platform.Machine, g *Graph, st RunState, extra []trace.Span) *trace.Trace {
	tr := trace.New(m)
	tr.Reserve(len(g.Tasks) + len(extra))
	for _, t := range g.Tasks {
		s := &st[t.ID]
		tr.AddSpan(trace.Span{
			Worker: s.RanOn,
			TaskID: t.ID,
			Kind:   t.Kind(),
			Start:  s.StartAt,
			End:    s.EndAt,
		})
	}
	for _, s := range extra {
		tr.AddSpan(s)
	}
	return tr
}

// WorkerStatsFromTrace derives per-worker statistics from a finished
// trace; dead/failed attribution comes from the spans' Failed flags and
// the applied kills.
func WorkerStatsFromTrace(m *platform.Machine, tr *trace.Trace, kills []AppliedKill) []WorkerStat {
	stats := make([]WorkerStat, len(m.Units))
	for i, u := range m.Units {
		stats[i] = WorkerStat{Unit: platform.UnitID(i), Name: u.Name}
	}
	for _, s := range tr.Spans {
		if int(s.Worker) >= len(stats) || s.Worker < 0 {
			continue
		}
		w := &stats[s.Worker]
		w.Busy += s.End - s.Start
		switch {
		case s.Failed:
			w.FailedAttempts++
		case s.Cancelled:
			w.CancelledAttempts++
		default:
			w.Tasks++
		}
	}
	for _, k := range kills {
		if int(k.Unit) < len(stats) {
			stats[k.Unit].Dead = true
		}
	}
	return stats
}
