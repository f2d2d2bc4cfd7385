package fault

import (
	"math"
	"reflect"
	"testing"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
)

func testMachine(t *testing.T) *platform.Machine {
	m, err := platform.NewHeteroNode("fault-test", 5, 10, 2, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateDeterministic(t *testing.T) {
	m := testMachine(t)
	spec := Spec{Seed: 42, Horizon: 10, Kills: 3, Slowdowns: 2, TransferFaults: 2, ModelNoise: 0.2}
	a := Generate(m, spec)
	b := Generate(m, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec produced different plans:\n%+v\n%+v", a, b)
	}
	c := Generate(m, Spec{Seed: 43, Horizon: 10, Kills: 3, Slowdowns: 2, TransferFaults: 2})
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestGenerateKeepsOneWorkerPerArch(t *testing.T) {
	m := testMachine(t)
	// Ask for far more kills than the machine can sustain.
	p := Generate(m, Spec{Seed: 7, Horizon: 5, Kills: len(m.Units) + 10})
	live := make([]int, len(m.Archs))
	for _, u := range m.Units {
		live[u.Arch]++
	}
	seen := make(map[platform.UnitID]bool)
	for _, e := range p.Kills() {
		if seen[e.Worker] {
			t.Fatalf("worker %d killed twice", e.Worker)
		}
		seen[e.Worker] = true
		live[m.Units[e.Worker].Arch]--
	}
	for a, n := range live {
		if n < 1 {
			t.Errorf("arch %s left with %d live workers", m.ArchName(platform.ArchID(a)), n)
		}
	}
}

func TestGenerateEventsInHorizonAndSorted(t *testing.T) {
	m := testMachine(t)
	p := Generate(m, Spec{Seed: 9, Horizon: 100, Kills: 2, Slowdowns: 3, TransferFaults: 3})
	last := math.Inf(-1)
	for _, e := range p.Events {
		if e.At < last {
			t.Fatalf("events not sorted: %g after %g", e.At, last)
		}
		last = e.At
		if e.At < 0 || e.At > 100*0.85+1e-9 {
			t.Errorf("event at %g outside scatter range", e.At)
		}
		if e.Kind == FailTransfer && e.Src == e.Dst {
			t.Errorf("transfer-failure window on self link %d->%d", e.Src, e.Dst)
		}
	}
}

func TestPlanWindows(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: SlowWorker, Worker: 1, At: 2, Until: 4, Factor: 3},
		{Kind: SlowWorker, Worker: 1, At: 3, Until: 5, Factor: 2},
		{Kind: FailTransfer, Src: 0, Dst: 1, At: 1, Until: 2},
	}}
	if f := p.SlowFactorAt(1, 3.5); f != 6 {
		t.Errorf("overlapping windows factor = %v, want 6", f)
	}
	if f := p.SlowFactorAt(1, 4.5); f != 2 {
		t.Errorf("single window factor = %v, want 2", f)
	}
	if f := p.SlowFactorAt(0, 3); f != 1 {
		t.Errorf("other worker factor = %v, want 1", f)
	}
	if !p.TransferFails(0, 1, 1.5) || p.TransferFails(0, 1, 2) || p.TransferFails(1, 0, 1.5) {
		t.Error("transfer window membership wrong")
	}
	if (&Plan{}).RetryCap() != DefaultMaxRetries || (&Plan{MaxRetries: 3}).RetryCap() != 3 {
		t.Error("retry cap defaulting wrong")
	}
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.SlowFactorAt(0, 0) != 1 || nilPlan.TransferFails(0, 1, 0) {
		t.Error("nil plan must behave as no faults")
	}
}

func TestRetryDelayExponentialCappedJittered(t *testing.T) {
	// With jitter disabled the delays are exactly base*2^(n-1), capped.
	p := &Plan{Backoff: 1e-3, Jitter: -1}
	for n, want := range map[int]float64{1: 1e-3, 2: 2e-3, 3: 4e-3, 4: 8e-3} {
		if got := p.RetryDelay(10, n); math.Abs(got-want) > 1e-15 {
			t.Errorf("RetryDelay(n=%d) = %v, want %v", n, got, want)
		}
	}
	// The default cap is DefaultBackoffCapFactor*base; far-out attempts
	// all wait the same.
	capped := p.RetryDelay(10, 50)
	if want := DefaultBackoffCapFactor * 1e-3; math.Abs(capped-want) > 1e-15 {
		t.Errorf("capped delay = %v, want %v", capped, want)
	}
	if p.RetryDelay(10, 51) != capped {
		t.Error("delays past the cap must be constant")
	}
	// An explicit cap wins.
	pc := &Plan{Backoff: 1e-3, BackoffCap: 3e-3, Jitter: -1}
	if got := pc.RetryDelay(10, 4); got != 3e-3 {
		t.Errorf("explicit cap: delay = %v, want 3e-3", got)
	}

	// Default jitter: delay in [d, d*(1+DefaultJitter)), deterministic,
	// and decorrelated across tasks and attempts.
	pj := &Plan{Backoff: 1e-3, JitterSeed: 99}
	d1 := pj.RetryDelay(10, 1)
	if d1 < 1e-3 || d1 >= 1e-3*(1+DefaultJitter) {
		t.Errorf("jittered delay %v outside [%v, %v)", d1, 1e-3, 1e-3*(1+DefaultJitter))
	}
	if pj.RetryDelay(10, 1) != d1 {
		t.Error("jitter must be deterministic for the same (plan, task, attempt)")
	}
	if pj.RetryDelay(11, 1) == d1 && pj.RetryDelay(12, 1) == d1 {
		t.Error("jitter should vary across tasks")
	}
	// n < 1 is clamped to the first attempt.
	if pj.RetryDelay(10, 0) != pj.RetryDelay(10, 1) {
		t.Error("n<1 must behave like n=1")
	}
	// A nil plan still yields sane, deterministic delays.
	var nilPlan *Plan
	if d := nilPlan.RetryDelay(1, 1); d < DefaultBackoff || d >= DefaultBackoff*(1+DefaultJitter) {
		t.Errorf("nil-plan delay %v out of range", d)
	}
}

func TestDropPastHorizonBoundary(t *testing.T) {
	events := []Event{
		{Kind: KillWorker, At: 0},
		{Kind: SlowWorker, At: 9.999999},
		{Kind: KillWorker, At: 10},      // exactly the horizon: dropped
		{Kind: FailTransfer, At: 10.25}, // past the horizon: dropped
	}
	got := dropPastHorizon(events, 10)
	if len(got) != 2 || got[0].At != 0 || got[1].At != 9.999999 {
		t.Fatalf("dropPastHorizon kept %+v, want the two pre-horizon events", got)
	}
	if n := len(dropPastHorizon(nil, 10)); n != 0 {
		t.Fatalf("empty schedule must stay empty, got %d events", n)
	}
}

func TestGenerateRespectsHorizonEdge(t *testing.T) {
	m := testMachine(t)
	p := Generate(m, Spec{Seed: 3, Horizon: 10, Kills: 3, Slowdowns: 5, TransferFaults: 4})
	for _, e := range p.Events {
		if e.At >= 10 {
			t.Errorf("event at %g not dropped at horizon 10", e.At)
		}
	}
}

func TestPlanSpeculationKnobs(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.SpecPolicy().Enabled {
		t.Fatal("nil plan must have speculation disabled")
	}
	p := &Plan{}
	if !p.Empty() {
		t.Fatal("zero plan must be empty")
	}
	p.Speculation.Enabled = true
	if p.Empty() {
		t.Fatal("a plan with speculation enabled is not empty: engines must track attempts")
	}
	m := testMachine(t)
	sp := Spec{Seed: 5, Horizon: 10, Slowdowns: 2}
	sp.Speculation.Enabled = true
	sp.Speculation.SlackFactor = 1.5
	gp := Generate(m, sp)
	if !gp.Speculation.Enabled || gp.Speculation.SlackFactor != 1.5 {
		t.Fatalf("Generate dropped speculation knobs: %+v", gp.Speculation)
	}
}

func TestNoisyEstimatorDeterministicAndBounded(t *testing.T) {
	n := NoisyEstimator{Base: perfmodel.Oracle{}, Rel: 0.2, Seed: 99}
	a, ok := n.Estimate("gemm", 0, 960, 1.0, true)
	if !ok {
		t.Fatal("estimate failed")
	}
	b, _ := n.Estimate("gemm", 0, 960, 1.0, true)
	if a != b {
		t.Fatalf("same triple gave different estimates: %v vs %v", a, b)
	}
	c, _ := n.Estimate("gemm", 1, 960, 1.0, true)
	if a == c {
		t.Error("different arch should (almost surely) perturb differently")
	}
	if a <= 0 || math.Abs(a-1) > 0.2*1.7320508075688772+1e-12 {
		t.Errorf("factor out of bounds: %v", a)
	}
	if v, ok := n.Estimate("gemm", 0, 960, 0, false); ok || v != 0 {
		t.Error("missing base estimate must stay missing")
	}
}
