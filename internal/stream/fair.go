package stream

import (
	"fmt"
	"sync"

	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
)

// Admission is one entry of the Fair wrapper's admission log: when the
// engine offered the task (PushedAt) and when the wrapper forwarded it
// to the inner policy (AdmittedAt). The two are equal unless the task's
// tenant was at its in-flight limit. The oracle's StreamCheck replays
// the log to prove admission delays are always self-inflicted (own
// tenant saturated) and never cross-tenant starvation.
type Admission struct {
	Task       int64
	Tenant     int
	PushedAt   float64
	AdmittedAt float64
}

// Fair layers multi-tenant admission control over any registry policy:
// tasks pushed while their tenant already has Limit tasks in flight
// (admitted and not completed) wait in that tenant's FIFO pending queue
// and are forwarded as completions free slots. Backpressure is
// per-tenant only — one tenant hitting its bound never delays another —
// which is the mechanism behind the bounded cross-tenant starvation
// guarantee. With unbounded limits every push is forwarded inline, so
// the wrapper is behaviourally transparent (the t=0 golden-equivalence
// proof relies on this).
//
// Fair implements runtime.Scheduler and runtime.FaultObserver; both
// engines can drive it like any other policy. A fault-retry re-push of
// an already-admitted task bypasses admission (its in-flight slot is
// still held — the task never completed), so recovery cannot deadlock
// behind the tenant's own limit.
type Fair struct {
	inner runtime.Scheduler
	plan  *Plan
	env   *runtime.Env

	mu       sync.Mutex
	pending  [][]*runtime.Task
	inflight []int
	admitted []bool
	log      []Admission
	// stats counts admissions per tenant; StreamStats adds the names.
	stats runtime.StreamStats

	// inflightTrack/pendingTrack are the per-tenant probe track names,
	// prebuilt at Init so the instrumented path never allocates; nil
	// when the env carries no probe.
	inflightTrack []string
	pendingTrack  []string
}

// NewFair wraps an instantiated policy. The plan supplies the tenant
// partition and the per-tenant limits.
func NewFair(inner runtime.Scheduler, plan *Plan) *Fair {
	return &Fair{inner: inner, plan: plan}
}

// New instantiates the named registry policy and wraps it — the usual
// way to build a multi-tenant scheduler.
func New(innerName string, plan *Plan, opts registry.Options) (*Fair, error) {
	inner, err := registry.New(innerName, opts)
	if err != nil {
		return nil, err
	}
	return NewFair(inner, plan), nil
}

// Name identifies the wrapper and its inner policy in reports.
func (f *Fair) Name() string { return fmt.Sprintf("fair(%s)", f.inner.Name()) }

// Init resets all admission state and initializes the inner policy.
func (f *Fair) Init(env *runtime.Env) {
	f.mu.Lock()
	f.env = env
	n := f.plan.NumTenants()
	f.pending = make([][]*runtime.Task, n)
	f.inflight = make([]int, n)
	f.admitted = make([]bool, len(env.Graph.Tasks))
	f.log = f.log[:0]
	f.stats = runtime.StreamStats{
		Admitted:   make([]int, n),
		Deferred:   make([]int, n),
		MaxPending: make([]int, n),
	}
	f.inflightTrack, f.pendingTrack = nil, nil
	if env.Probe != nil {
		f.inflightTrack = make([]string, n)
		f.pendingTrack = make([]string, n)
		for k := 0; k < n; k++ {
			f.inflightTrack[k] = "stream.inflight[" + f.plan.Name(k) + "]"
			f.pendingTrack[k] = "stream.pending[" + f.plan.Name(k) + "]"
		}
	}
	f.mu.Unlock()
	f.inner.Init(env)
}

// noteTenant samples tenant k's in-flight and pending depths on the
// env probe. Callers hold f.mu; a nil probe costs one branch.
func (f *Fair) noteTenant(k int) {
	if f.inflightTrack == nil {
		return
	}
	at, seq := f.env.Now(), f.env.Seq()
	f.env.Probe.Counter(f.inflightTrack[k], at, seq, float64(f.inflight[k]))
	f.env.Probe.Counter(f.pendingTrack[k], at, seq, float64(len(f.pending[k])))
}

// Push offers a dependency-released task. First offers go through
// admission; re-pushes of admitted tasks (fault retries) pass straight
// through.
func (f *Fair) Push(t *runtime.Task) {
	f.mu.Lock()
	if f.admitted[t.ID] {
		f.mu.Unlock()
		f.inner.Push(t)
		return
	}
	k := f.plan.Tenant(t.ID)
	now := f.env.Now()
	lim := f.plan.Limit(k)
	if lim > 0 && f.inflight[k] >= lim {
		f.pending[k] = append(f.pending[k], t)
		if n := len(f.pending[k]); n > f.stats.MaxPending[k] {
			f.stats.MaxPending[k] = n
		}
		f.stats.Deferred[k]++
		// PushedAt is recorded now; AdmittedAt is filled when a slot
		// frees. Stash the push time on the log entry eagerly so the
		// admission in TaskDone only completes it.
		f.log = append(f.log, Admission{Task: t.ID, Tenant: k, PushedAt: now, AdmittedAt: -1})
		f.noteTenant(k)
		f.mu.Unlock()
		return
	}
	f.admitNowLocked(t, k, now, now)
	f.noteTenant(k)
	f.mu.Unlock()
	f.inner.Push(t)
}

// admitNowLocked marks t admitted and logs it. Callers forward to the
// inner policy after unlocking.
func (f *Fair) admitNowLocked(t *runtime.Task, k int, pushedAt, admittedAt float64) {
	f.admitted[t.ID] = true
	f.inflight[k]++
	f.stats.Admitted[k]++
	f.log = append(f.log, Admission{Task: t.ID, Tenant: k, PushedAt: pushedAt, AdmittedAt: admittedAt})
}

// Pop delegates to the inner policy: the wrapper shapes what reaches
// the inner queues, never which admitted task a worker gets.
func (f *Fair) Pop(w runtime.WorkerInfo) *runtime.Task { return f.inner.Pop(w) }

// TaskDone releases the tenant's in-flight slot and admits the head of
// its pending queue, if any, preserving FIFO submission order within
// the tenant.
func (f *Fair) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {
	f.mu.Lock()
	k := f.plan.Tenant(t.ID)
	f.inflight[k]--
	var admit []*runtime.Task
	lim := f.plan.Limit(k)
	for len(f.pending[k]) > 0 && (lim == 0 || f.inflight[k] < lim) {
		next := f.pending[k][0]
		f.pending[k] = f.pending[k][1:]
		now := f.env.Now()
		// Complete the deferred log entry: find it by task ID (the
		// entry with AdmittedAt still unset).
		for i := len(f.log) - 1; i >= 0; i-- {
			if f.log[i].Task == next.ID && f.log[i].AdmittedAt < 0 {
				f.log[i].AdmittedAt = now
				break
			}
		}
		f.admitted[next.ID] = true
		f.inflight[k]++
		f.stats.Admitted[k]++
		admit = append(admit, next)
	}
	f.noteTenant(k)
	f.mu.Unlock()
	f.inner.TaskDone(t, w)
	for _, nt := range admit {
		f.inner.Push(nt)
	}
}

// WorkerDown forwards fault notifications to inner policies that keep
// per-worker state.
func (f *Fair) WorkerDown(w runtime.WorkerInfo) {
	if fo, ok := f.inner.(runtime.FaultObserver); ok {
		fo.WorkerDown(w)
	}
}

// AdmissionLog returns a copy of the admission log in admission-event
// order. Entries with AdmittedAt == -1 were still pending when the run
// ended (only possible on aborted runs).
func (f *Fair) AdmissionLog() []Admission {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Admission, len(f.log))
	copy(out, f.log)
	return out
}

// StreamStats implements runtime.StreamStatsReporter: a copy of the
// per-tenant admission statistics, which both engines surface on
// runtime.Result.Stream without importing this package.
func (f *Fair) StreamStats() runtime.StreamStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.plan.NumTenants()
	out := runtime.StreamStats{
		Tenants:    make([]string, n),
		Admitted:   append([]int(nil), f.stats.Admitted...),
		Deferred:   append([]int(nil), f.stats.Deferred...),
		MaxPending: append([]int(nil), f.stats.MaxPending...),
	}
	for k := 0; k < n; k++ {
		out.Tenants[k] = f.plan.Name(k)
	}
	return out
}
