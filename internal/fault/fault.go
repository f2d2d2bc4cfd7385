// Package fault provides deterministic, seed-driven fault injection for
// the execution engines: worker kills, worker slowdown windows, transfer
// failures, and performance-model misprediction noise. A Plan is a fixed
// schedule of events derived from a splitmix64 seed — never from
// wall-clock time — so the same (workload, scheduler, seed, plan)
// produces a byte-identical canonical trace on the simulator, run after
// run.
//
// Recovery lives in the engines (internal/sim, internal/runtime): the
// STF task graph is the recovery log, so a killed or failed task is
// rolled back and re-pushed to the scheduler, and lost device replicas
// are re-fetched from the coherence state. The plan only says what
// breaks, and when.
package fault

import (
	"fmt"
	"sort"

	"multiprio/internal/platform"
	"multiprio/internal/spec"
)

// Kind classifies one injected fault event.
type Kind uint8

const (
	// KillWorker permanently removes a processing unit at time At. A
	// kernel running across the kill is aborted (sim) or its completion
	// discarded (threaded engine); the task retries elsewhere.
	KillWorker Kind = iota + 1
	// SlowWorker multiplies the execution time of kernels starting on
	// the unit within [At, Until] by Factor.
	SlowWorker
	// FailTransfer makes transfers on the Src->Dst link that start
	// within [At, Until] fail on arrival; the engine re-issues them.
	FailTransfer
)

// String returns the short name of the kind.
func (k Kind) String() string {
	switch k {
	case KillWorker:
		return "kill"
	case SlowWorker:
		return "slow"
	case FailTransfer:
		return "xfail"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// At is when the fault takes effect, in engine time (virtual seconds
	// for the simulator, wall-clock seconds for the threaded engine).
	At float64
	// Worker is the target unit (KillWorker, SlowWorker).
	Worker platform.UnitID
	// Factor is the execution-time multiplier of a SlowWorker window
	// (> 1 means slower).
	Factor float64
	// Until closes the [At, Until] window of SlowWorker and
	// FailTransfer events.
	Until float64
	// Src and Dst name the link of a FailTransfer window.
	Src, Dst platform.MemID
}

// Defaults for Plan knobs left at zero.
const (
	DefaultMaxRetries = 8
	DefaultBackoff    = 1e-3
	// DefaultBackoffCapFactor caps the exponential retry delay at this
	// multiple of the base backoff (attempt 7 and later all wait the
	// same), so a task near the retry limit is not parked forever.
	DefaultBackoffCapFactor = 64
	// DefaultJitter is the relative jitter spread added on top of the
	// exponential delay: attempt delays are multiplied by a
	// deterministic, seed-derived factor in [1, 1+DefaultJitter).
	DefaultJitter = 0.1
)

// Plan is a complete fault schedule plus the recovery knobs the engines
// honor. The zero value injects nothing.
type Plan struct {
	// Events is the fault schedule. Engines apply them in At order;
	// Normalize sorts.
	Events []Event
	// MaxRetries caps how often one task may be rolled back before the
	// run fails. 0 means DefaultMaxRetries.
	MaxRetries int
	// Backoff is the base delay before a rolled-back task is re-pushed;
	// attempt k waits Backoff*2^(k-1) (capped, jittered — see
	// RetryDelay). 0 means DefaultBackoff.
	Backoff float64
	// BackoffCap bounds the exponential retry delay. 0 means
	// DefaultBackoffCapFactor times the base backoff.
	BackoffCap float64
	// Jitter is the relative jitter spread of retry delays: each delay
	// is multiplied by a deterministic factor in [1, 1+Jitter). 0 means
	// DefaultJitter; negative disables jitter entirely.
	Jitter float64
	// JitterSeed seeds the retry-jitter hash (Generate derives it from
	// the spec seed; 0 is a valid, still deterministic, seed).
	JitterSeed uint64
	// ModelNoise, when > 0, wraps the scheduler's performance model so
	// every estimate is deterministically mispredicted with this
	// relative spread (see NoisyEstimator).
	ModelNoise float64
	// NoiseSeed seeds the misprediction hash.
	NoiseSeed uint64
	// Speculation configures straggler mitigation by speculative task
	// replication (see internal/spec). Carried on the plan so a study's
	// slowdown schedule and its mitigation policy travel together and
	// stay reproducible from one seed.
	Speculation spec.Policy
}

// Empty reports whether the plan injects nothing at all and enables no
// mitigation machinery.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Events) == 0 && p.ModelNoise == 0 && !p.Speculation.Enabled)
}

// SpecPolicy returns the plan's speculation policy (zero for nil plans).
func (p *Plan) SpecPolicy() spec.Policy {
	if p == nil {
		return spec.Policy{}
	}
	return p.Speculation
}

// Normalize sorts the events by (At, Kind, Worker, Src, Dst) so that
// plans built in any order apply identically.
func (p *Plan) Normalize() {
	sort.SliceStable(p.Events, func(i, j int) bool {
		a, b := p.Events[i], p.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// RetryCap returns the effective per-task rollback limit.
func (p *Plan) RetryCap() int {
	if p == nil || p.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// RetryBackoff returns the effective base backoff delay.
func (p *Plan) RetryBackoff() float64 {
	if p == nil || p.Backoff <= 0 {
		return DefaultBackoff
	}
	return p.Backoff
}

// retryCapDelay returns the effective ceiling of the exponential retry
// delay.
func (p *Plan) retryCapDelay() float64 {
	if p != nil && p.BackoffCap > 0 {
		return p.BackoffCap
	}
	return DefaultBackoffCapFactor * p.RetryBackoff()
}

// retryJitter returns the effective relative jitter spread.
func (p *Plan) retryJitter() float64 {
	if p == nil || p.Jitter == 0 {
		return DefaultJitter
	}
	if p.Jitter < 0 {
		return 0
	}
	return p.Jitter
}

// RetryDelay returns the delay before re-pushing task after its n-th
// rollback (n >= 1): capped exponential backoff,
// min(Backoff*2^(n-1), cap), scaled by a deterministic jitter factor in
// [1, 1+Jitter) hashed from (JitterSeed, task, n). Jitter decorrelates
// the retries of tasks rolled back by the same kill, so the recovered
// work does not slam the scheduler in one burst — while the same plan
// still yields the same delays run after run.
func (p *Plan) RetryDelay(task int64, n int) float64 {
	if n < 1 {
		n = 1
	}
	d := p.RetryBackoff()
	cap := p.retryCapDelay()
	// Walk the doubling instead of shifting so huge n cannot overflow;
	// the cap is hit within a few dozen steps.
	for i := 1; i < n && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	if j := p.retryJitter(); j > 0 {
		var seed uint64
		if p != nil {
			seed = p.JitterSeed
		}
		r := rng{s: seed ^ uint64(task)*0x9e3779b97f4a7c15 ^ uint64(n)<<32}
		d *= 1 + j*r.f64()
	}
	return d
}

// Kills returns the kill events of the plan, in schedule order.
func (p *Plan) Kills() []Event {
	if p == nil {
		return nil
	}
	var out []Event
	for _, e := range p.Events {
		if e.Kind == KillWorker {
			out = append(out, e)
		}
	}
	return out
}

// SlowFactorAt returns the combined slowdown factor of worker w at time
// t: the product of the factors of every SlowWorker window covering t.
func (p *Plan) SlowFactorAt(w platform.UnitID, t float64) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, e := range p.Events {
		if e.Kind == SlowWorker && e.Worker == w && e.At <= t && t < e.Until && e.Factor > 0 {
			f *= e.Factor
		}
	}
	return f
}

// TransferFails reports whether a transfer on src->dst starting at t
// falls inside a failure window.
func (p *Plan) TransferFails(src, dst platform.MemID, t float64) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == FailTransfer && e.Src == src && e.Dst == dst && e.At <= t && t < e.Until {
			return true
		}
	}
	return false
}

// Spec describes the random fault mix Generate draws from a seed.
type Spec struct {
	// Seed drives every choice below through splitmix64.
	Seed uint64
	// Horizon is the time span faults are scattered over, typically the
	// fault-free makespan of the same workload. Events land in
	// [0.05, 0.85] * Horizon so a late kill still has work to disrupt.
	Horizon float64
	// Kills is the number of workers to kill. Generate never kills the
	// last live worker of any architecture, so every task keeps at
	// least one eligible worker; the count is truncated when the
	// machine cannot lose that many units.
	Kills int
	// Slowdowns is the number of slowdown windows.
	Slowdowns int
	// SlowFactor is the execution-time multiplier of each window
	// (default 4).
	SlowFactor float64
	// SlowSpan is each window's length (default Horizon/4).
	SlowSpan float64
	// TransferFaults is the number of link-failure windows, each on a
	// random distinct-node link.
	TransferFaults int
	// ModelNoise is copied into the plan (relative misprediction
	// spread of the scheduler's performance model).
	ModelNoise float64
	// Speculation is copied into the plan (straggler-mitigation policy;
	// see internal/spec).
	Speculation spec.Policy
}

// rng is splitmix64 (Steele et al.), the repository's standard seeding
// primitive: tiny, fast, and with well-distributed increments.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 returns a uniform float in [0, 1).
func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate draws a Plan for machine m from spec. The same (machine,
// spec) always yields the same plan.
func Generate(m *platform.Machine, spec Spec) *Plan {
	r := rng{s: spec.Seed}
	horizon := spec.Horizon
	if horizon <= 0 {
		horizon = 1
	}
	when := func() float64 { return horizon * (0.05 + 0.8*r.f64()) }
	p := &Plan{
		ModelNoise:  spec.ModelNoise,
		NoiseSeed:   spec.Seed ^ 0xa076_1d64_78bd_642f,
		JitterSeed:  spec.Seed ^ 0xe703_7ed1_a0b4_28db,
		Speculation: spec.Speculation,
	}

	// Kills: keep at least one live worker per architecture so every
	// task retains an eligible worker and the run can always finish.
	liveByArch := make([]int, len(m.Archs))
	for _, u := range m.Units {
		liveByArch[u.Arch]++
	}
	killed := make([]bool, len(m.Units))
	for k := 0; k < spec.Kills; k++ {
		victim := -1
		for try := 0; try < 4*len(m.Units); try++ {
			c := r.intn(len(m.Units))
			if !killed[c] && liveByArch[m.Units[c].Arch] > 1 {
				victim = c
				break
			}
		}
		if victim < 0 {
			break // machine cannot lose another unit
		}
		killed[victim] = true
		liveByArch[m.Units[victim].Arch]--
		p.Events = append(p.Events, Event{
			Kind: KillWorker, At: when(), Worker: platform.UnitID(victim),
		})
	}

	slowFactor := spec.SlowFactor
	if slowFactor <= 1 {
		slowFactor = 4
	}
	slowSpan := spec.SlowSpan
	if slowSpan <= 0 {
		slowSpan = horizon / 4
	}
	for k := 0; k < spec.Slowdowns; k++ {
		at := when()
		p.Events = append(p.Events, Event{
			Kind: SlowWorker, At: at, Until: at + slowSpan,
			Worker: platform.UnitID(r.intn(len(m.Units))), Factor: slowFactor,
		})
	}

	window := horizon / 10
	if len(m.Mems) > 1 {
		for k := 0; k < spec.TransferFaults; k++ {
			src := platform.MemID(r.intn(len(m.Mems)))
			dst := platform.MemID(r.intn(len(m.Mems) - 1))
			if dst >= src {
				dst++
			}
			at := when()
			p.Events = append(p.Events, Event{
				Kind: FailTransfer, At: at, Until: at + window, Src: src, Dst: dst,
			})
		}
	}
	p.Events = dropPastHorizon(p.Events, horizon)
	p.Normalize()
	return p
}

// dropPastHorizon removes events scheduled at or after the horizon: an
// event at exactly t == horizon has, by definition, no work left to
// disrupt, and engines indexing windows by [At, Until) would otherwise
// apply it to a kernel starting exactly at the horizon.
func dropPastHorizon(events []Event, horizon float64) []Event {
	out := events[:0]
	for _, e := range events {
		if e.At < horizon {
			out = append(out, e)
		}
	}
	return out
}
