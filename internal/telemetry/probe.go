package telemetry

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"multiprio/internal/obs"
	"multiprio/internal/runtime"
)

// TenantFunc attributes a task to a tenant label for the per-tenant
// histograms. Streaming runs install stream.Plan-backed attribution via
// SetTenantFunc; everything else lands on the "all" tenant.
type TenantFunc func(taskID int64) string

// Health is the liveness/readiness state behind /healthz and /readyz.
// The probe degrades it when a run aborts on the progress watchdog or
// the starvation detector and restores it on the next clean run;
// readiness tracks whether a telemetry server is attached and serving.
type Health struct {
	ready atomic.Bool

	mu       sync.Mutex
	degraded bool
	reason   string
}

// Ready reports readiness.
func (h *Health) Ready() bool { return h.ready.Load() }

// SetReady flips readiness; the telemetry server calls it on start and
// graceful shutdown.
func (h *Health) SetReady(v bool) { h.ready.Store(v) }

// Healthy reports liveness; the reason is empty when healthy.
func (h *Health) Healthy() (bool, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.degraded, h.reason
}

// fail marks the process degraded with a reason.
func (h *Health) fail(reason string) {
	h.mu.Lock()
	h.degraded, h.reason = true, reason
	h.mu.Unlock()
}

// ok clears a degradation.
func (h *Health) ok() {
	h.mu.Lock()
	h.degraded, h.reason = false, ""
	h.mu.Unlock()
}

// runRecord is one run captured for the JSONL export.
type runRecord struct {
	engine, scheduler string
	tasks             int
	makespan          float64
	err               string
	done              bool
}

// Probe aggregates the engines' probe stream into live metrics. It
// implements runtime.RunObserver: attach with runtime.WithObserver (or
// sim.Run) and every existing instrumentation site feeds
// it unchanged — the engines fan it in beside any user probe via
// obs.Combine.
//
// Recording is designed for the threaded engine's concurrency: every
// event resolves pre-cached *Metric handles and updates them with
// atomics; the only locks on the event path are a RWMutex read lock per
// previously-unseen label lookup and the decision-capture mutex when
// capture is enabled.
type Probe struct {
	reg    *Registry
	health *Health

	// Pre-registered families. Single-label each; see NewProbe for the
	// metric inventory.
	queue, sojourn             *Family
	completed                  *Family
	busy, idle                 *Family
	decisions                  *Family
	trackVal                   *Family
	memUsed                    *Family
	streamInflight, streamPend *Family
	streamAdmitted, streamDef  *Family
	runsTotal                  *Family
	runsInflight               *Metric
	makespan                   *Metric
	faultKills, faultRetries   *Metric
	faultTransfers             *Metric
	specLaunched, specWins     *Metric
	specCancelled              *Metric

	// decisionKinds pre-resolves the per-kind decision counters so the
	// hot path is array-indexed.
	decisionKinds [obs.TaskDone + 1]*Metric

	// tenantOf is the current tenant attribution (TenantFunc).
	tenantOf atomic.Value
	// workerBusy holds the per-worker busy-counter handles of the most
	// recent RunStart machine, indexed by unit ID ([]*Metric).
	workerBusy atomic.Value

	// Decision capture for ExportJSONL, off unless WithDecisionCapture.
	capMu   sync.Mutex
	capMax  int
	capture []obs.Decision
	dropped int64
	runs    []runRecord
}

// ProbeOption configures NewProbe.
type ProbeOption func(*Probe)

// WithDecisionCapture retains up to max decision events in memory for
// ExportJSONL; further events are counted as dropped. max <= 0 keeps
// capture disabled.
func WithDecisionCapture(max int) ProbeOption {
	return func(p *Probe) { p.capMax = max }
}

// NewProbe builds a probe with a fresh registry. Metric names follow
// Prometheus conventions with a multiprio_ prefix; durations are
// seconds.
func NewProbe(opts ...ProbeOption) *Probe {
	r := NewRegistry()
	p := &Probe{
		reg:    r,
		health: &Health{},
		queue: r.NewHistogram("multiprio_tenant_queue_seconds",
			"Per-task queue time (scheduler offer to kernel start), by tenant.", "tenant"),
		sojourn: r.NewHistogram("multiprio_tenant_sojourn_seconds",
			"Per-task sojourn time (scheduler offer to effective completion), by tenant.", "tenant"),
		completed: r.NewCounter("multiprio_tasks_completed_total",
			"Effective task completions, by tenant.", "tenant"),
		busy: r.NewCounter("multiprio_worker_busy_seconds_total",
			"Kernel time of effective completions, by worker.", "worker"),
		idle: r.NewCounter("multiprio_worker_idle_seconds_total",
			"Idle time per finished run (makespan minus busy time), by worker.", "worker"),
		decisions: r.NewCounter("multiprio_sched_decisions_total",
			"Scheduler decision events, by kind (push/score/pop/evict/stale/map/done).", "kind"),
		trackVal: r.NewGauge("multiprio_track_value",
			"Last value of every engine counter track, by track name.", "track"),
		memUsed: r.NewGauge("multiprio_mem_used_bytes",
			"Memory-node occupancy (simulator mem.used tracks), by node.", "node"),
		streamInflight: r.NewGauge("multiprio_stream_inflight",
			"Admitted-not-completed tasks of the Fair admission wrapper, by tenant.", "tenant"),
		streamPend: r.NewGauge("multiprio_stream_pending",
			"Tasks waiting in the Fair admission queue, by tenant.", "tenant"),
		streamAdmitted: r.NewCounter("multiprio_stream_admitted_total",
			"First admissions through the Fair wrapper, by tenant.", "tenant"),
		streamDef: r.NewCounter("multiprio_stream_deferred_total",
			"Admissions that waited behind the tenant's in-flight limit, by tenant.", "tenant"),
		runsTotal: r.NewCounter("multiprio_runs_total",
			"Finished engine runs, by result (ok/watchdog/starved/error).", "result"),
		runsInflight: r.NewGauge("multiprio_runs_inflight",
			"Engine runs currently executing.", "").With(""),
		makespan: r.NewHistogram("multiprio_run_makespan_seconds",
			"Makespan of successfully finished runs.", "").With(""),
		faultKills: r.NewCounter("multiprio_faults_kills_total",
			"Worker kills applied by fault plans.", "").With(""),
		faultRetries: r.NewCounter("multiprio_faults_retries_total",
			"Execution attempts rolled back and re-pushed after faults.", "").With(""),
		faultTransfers: r.NewCounter("multiprio_faults_transfer_failures_total",
			"Transfers failed and re-issued.", "").With(""),
		specLaunched: r.NewCounter("multiprio_spec_replicas_total",
			"Speculative replicas launched by straggler mitigation.", "").With(""),
		specWins: r.NewCounter("multiprio_spec_replica_wins_total",
			"Tasks whose effective completion came from a replica.", "").With(""),
		specCancelled: r.NewCounter("multiprio_spec_cancelled_total",
			"Attempts cancelled by first-success-wins arbitration.", "").With(""),
	}
	for k := obs.PushBest; k <= obs.TaskDone; k++ {
		p.decisionKinds[k] = p.decisions.With(k.String())
	}
	p.tenantOf.Store(TenantFunc(func(int64) string { return "all" }))
	p.workerBusy.Store([]*Metric(nil))
	for _, o := range opts {
		o(p)
	}
	return p
}

// Health returns the probe's health state.
func (p *Probe) Health() *Health { return p.health }

// Snapshot captures the current metrics.
func (p *Probe) Snapshot() Snapshot { return p.reg.Snapshot() }

// SetTenantFunc installs task→tenant attribution for the per-tenant
// histograms (e.g. a stream.Plan's Tenant/Name composition). Safe to
// call concurrently with recording; nil restores the "all" default.
func (p *Probe) SetTenantFunc(fn TenantFunc) {
	if fn == nil {
		fn = func(int64) string { return "all" }
	}
	p.tenantOf.Store(fn)
}

// RunStart implements runtime.RunObserver: pre-resolves per-worker
// handles and counts the run in flight.
func (p *Probe) RunStart(info runtime.RunInfo) {
	if info.Machine != nil {
		ws := make([]*Metric, len(info.Machine.Units))
		for i, u := range info.Machine.Units {
			ws[i] = p.busy.With(u.Name)
		}
		p.workerBusy.Store(ws)
	}
	p.runsInflight.Add(1)
	if p.capMax > 0 {
		p.capMu.Lock()
		p.runs = append(p.runs, runRecord{engine: info.Engine,
			scheduler: info.Scheduler, tasks: info.Tasks})
		p.capMu.Unlock()
	}
}

// RunEnd implements runtime.RunObserver: folds the run summary into the
// counters and drives health off the watchdog/starvation aborts.
func (p *Probe) RunEnd(res *runtime.Result, err error) {
	p.runsInflight.Add(-1)
	switch {
	case err == nil:
		p.runsTotal.With("ok").Inc()
		p.health.ok()
	case errors.Is(err, runtime.ErrWatchdog):
		p.runsTotal.With("watchdog").Inc()
		p.health.fail(err.Error())
	case errors.Is(err, runtime.ErrStarved):
		p.runsTotal.With("starved").Inc()
		p.health.fail(err.Error())
	default:
		p.runsTotal.With("error").Inc()
	}
	if res != nil {
		if err == nil {
			p.makespan.Observe(res.Makespan)
		}
		for _, w := range res.Workers {
			if idle := res.Makespan - w.Busy; idle > 0 {
				p.idle.With(w.Name).Add(idle)
			}
		}
		p.faultKills.Add(float64(res.Faults.Kills))
		p.faultRetries.Add(float64(res.Faults.Retries))
		p.faultTransfers.Add(float64(res.Faults.TransferFailures))
		p.specLaunched.Add(float64(res.Spec.Launched))
		p.specWins.Add(float64(res.Spec.ReplicaWins))
		p.specCancelled.Add(float64(res.Spec.Cancelled))
		if s := res.Stream; s != nil {
			for k, name := range s.Tenants {
				p.streamAdmitted.With(name).Add(float64(s.Admitted[k]))
				p.streamDef.With(name).Add(float64(s.Deferred[k]))
			}
		}
	}
	if p.capMax > 0 {
		p.capMu.Lock()
		// Complete the most recent open record. With concurrent runs
		// attribution is approximate (records are summaries, not a
		// linearization) — the metric counters above stay exact.
		for i := len(p.runs) - 1; i >= 0; i-- {
			if !p.runs[i].done {
				p.runs[i].done = true
				if res != nil {
					p.runs[i].makespan = res.Makespan
				}
				if err != nil {
					p.runs[i].err = err.Error()
				}
				break
			}
		}
		p.capMu.Unlock()
	}
}

// Decision implements obs.Probe. TaskDone events — emitted by the
// engines for every effective completion — feed the per-tenant queue
// and sojourn histograms and the per-worker busy counters; every kind
// increments its decision counter.
func (p *Probe) Decision(d obs.Decision) {
	if d.Kind >= obs.PushBest && d.Kind <= obs.TaskDone {
		p.decisionKinds[d.Kind].Inc()
	}
	if d.Kind == obs.TaskDone {
		tenant := p.tenantOf.Load().(TenantFunc)(d.Task)
		p.queue.With(tenant).Observe(d.A - d.B)
		p.sojourn.With(tenant).Observe(d.At - d.B)
		p.completed.With(tenant).Inc()
		if kernel := d.At - d.A; kernel > 0 {
			if ws, _ := p.workerBusy.Load().([]*Metric); d.Worker >= 0 && d.Worker < len(ws) {
				ws[d.Worker].Add(kernel)
			} else {
				p.busy.With("w" + strconv.Itoa(d.Worker)).Add(kernel)
			}
		}
	}
	if p.capMax > 0 {
		p.capMu.Lock()
		if len(p.capture) < p.capMax {
			p.capture = append(p.capture, d)
		} else {
			p.dropped++
		}
		p.capMu.Unlock()
	}
}

// Counter implements obs.Probe: every engine track mirrors into the
// multiprio_track_value gauge, and the well-known track shapes
// additionally project onto typed gauges (memory occupancy, stream
// admission depths).
func (p *Probe) Counter(track string, at float64, seq int64, value float64) {
	p.trackVal.With(track).Set(value)
	if node, ok := bracketArg(track, "mem.used["); ok {
		p.memUsed.With(node).Set(value)
	} else if tenant, ok := bracketArg(track, "stream.inflight["); ok {
		p.streamInflight.With(tenant).Set(value)
	} else if tenant, ok := bracketArg(track, "stream.pending["); ok {
		p.streamPend.With(tenant).Set(value)
	}
}

// bracketArg extracts X from "prefixX]" track names like
// "mem.used[gpu0]".
func bracketArg(track, prefix string) (string, bool) {
	if strings.HasPrefix(track, prefix) && strings.HasSuffix(track, "]") {
		return track[len(prefix) : len(track)-1], true
	}
	return "", false
}
