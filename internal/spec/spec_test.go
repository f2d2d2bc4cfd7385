package spec

import (
	"math"
	"testing"

	"multiprio/internal/obs"
)

func TestPolicyDefaults(t *testing.T) {
	var p Policy
	if got := p.Slack(); got != DefaultSlackFactor {
		t.Errorf("Slack() = %v, want %v", got, DefaultSlackFactor)
	}
	if got := p.ReplicaCap(); got != DefaultMaxReplicas {
		t.Errorf("ReplicaCap() = %v, want %v", got, DefaultMaxReplicas)
	}
	// A slack factor of exactly 1 would flag every on-model task; it must
	// fall back to the default.
	p.SlackFactor = 1
	if got := p.Slack(); got != DefaultSlackFactor {
		t.Errorf("Slack() with factor 1 = %v, want default %v", got, DefaultSlackFactor)
	}
	p = Policy{SlackFactor: 1.5, MaxReplicas: 3}
	if p.Slack() != 1.5 || p.ReplicaCap() != 3 {
		t.Errorf("explicit knobs not honored: %+v", p)
	}
}

func TestControllerFirstSuccessWins(t *testing.T) {
	c := New(Policy{Enabled: true}, nil, nil, nil)
	if !c.Effective(7, false) {
		t.Fatal("first completion must be effective")
	}
	if c.Effective(7, true) {
		t.Fatal("second completion must be discarded")
	}
	if !c.Done(7) {
		t.Fatal("task must be done after effective completion")
	}
	if c.Stats.ReplicaWins != 0 {
		t.Fatalf("original won, ReplicaWins = %d, want 0", c.Stats.ReplicaWins)
	}
	if !c.Effective(8, true) {
		t.Fatal("first completion of another task must be effective")
	}
	if c.Stats.ReplicaWins != 1 {
		t.Fatalf("replica won, ReplicaWins = %d, want 1", c.Stats.ReplicaWins)
	}
}

func TestControllerReplicaBudget(t *testing.T) {
	c := New(Policy{Enabled: true, MaxReplicas: 2}, nil, nil, nil)
	if !c.TryFlag(1) || !c.TryFlag(1) {
		t.Fatal("budget of 2 must allow two replicas")
	}
	if c.TryFlag(1) {
		t.Fatal("third replica must be rejected")
	}
	if c.launched[1] != 2 {
		t.Fatalf("launched[1] = %d, want 2", c.launched[1])
	}
	if got := (Stats{Flagged: 2, Launched: 2}); c.Stats != got {
		t.Fatalf("Stats = %+v, want %+v", c.Stats, got)
	}
	// Done tasks must never be flagged.
	c.Effective(2, false)
	if c.TryFlag(2) {
		t.Fatal("done task must not be flagged")
	}
}

func TestControllerEligibilityAndDeadline(t *testing.T) {
	c := New(Policy{Enabled: true, SlackFactor: 2, MinExpected: 0.01}, nil, nil, nil)
	if c.Eligible(0) || c.Eligible(-1) || c.Eligible(0.005) {
		t.Fatal("zero, negative, or below-MinExpected expectations must be ineligible")
	}
	if !c.Eligible(0.01) || !c.Eligible(1) {
		t.Fatal("at/above MinExpected must be eligible")
	}
	if got := c.Deadline(0.5); got != 1.0 {
		t.Fatalf("Deadline(0.5) = %v, want 1.0", got)
	}
}

func TestControllerWastedWork(t *testing.T) {
	c := New(Policy{Enabled: true}, nil, nil, nil)
	c.CancelAttempt(1, 0.25)
	c.CancelAttempt(2, -1) // staged-only loser: no busy time
	if c.Stats.Cancelled != 2 {
		t.Fatalf("Cancelled = %d, want 2", c.Stats.Cancelled)
	}
	if math.Abs(c.Stats.WastedWork-0.25) > 1e-12 {
		t.Fatalf("WastedWork = %v, want 0.25", c.Stats.WastedWork)
	}
}

func TestControllerRetired(t *testing.T) {
	c := New(Policy{Enabled: true}, nil, nil, nil)
	if !c.TryFlag(1) {
		t.Fatal("first flag must pass")
	}
	// All attempts died (kill) before an effective completion: the task
	// restarts from scratch and regains its replica budget.
	c.Retired(1)
	if !c.TryFlag(1) {
		t.Fatal("retired task must regain its budget")
	}
	// Retiring a done task must not reopen it.
	c.Effective(1, false)
	c.Retired(1)
	if c.TryFlag(1) {
		t.Fatal("done task must stay done after Retired")
	}
}

func TestControllerProbeCounters(t *testing.T) {
	m := obs.NewMetrics()
	now := 1.5
	c := New(Policy{Enabled: true}, m, func() float64 { return now }, func() int64 { return 42 })
	c.TryFlag(1)
	c.Effective(1, true)
	c.CancelAttempt(2, 0.125)
	for _, want := range []string{"spec.flagged", "spec.launched", "spec.won", "spec.cancelled", "spec.wasted"} {
		if len(m.Samples(want)) == 0 {
			t.Errorf("missing counter track %q", want)
		}
	}
	if s := m.Samples("spec.wasted"); len(s) == 0 || s[len(s)-1].Value != 0.125 {
		t.Errorf("spec.wasted = %v, want a last value of 0.125", s)
	}
}
