package spec

import "testing"

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

// TestControllerEligibilityAndDeadline keeps the name it had when the
// Controller answered these; they are Policy methods now.
func TestControllerEligibilityAndDeadline(t *testing.T) {
	p := Policy{Enabled: true, SlackFactor: 2, MinExpected: 0.01}
	if p.Eligible(0) || p.Eligible(-1) || p.Eligible(0.005) {
		t.Fatal("zero, negative, or below-MinExpected expectations must be ineligible")
	}
	if !p.Eligible(0.01) || !p.Eligible(1) {
		t.Fatal("at/above MinExpected must be eligible")
	}
	if got := p.Deadline(0.5); got != 1.0 {
		t.Fatalf("Deadline(0.5) = %v, want 1.0", got)
	}
}
