package experiments

import (
	"strings"
	"testing"
)

// TestRunStream pins the streaming study's contract: every cell of the
// load × shape × skew × scheduler sweep passes the oracle including
// StreamCheck, per-tenant metrics are populated and sane, and the
// low-load half actually streams (the makespan stretches past the batch
// regime because arrivals pace the run).
func TestRunStream(t *testing.T) {
	r := quickResult[*StreamResult](t, "stream")
	wantCells := 2 * 2 * 2 * len(streamSchedulers)
	if len(r.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(r.Cells), wantCells)
	}
	for _, c := range r.Cells {
		label := c.Shape + "/" + c.Skew + "/" + c.Scheduler
		if len(c.Tenants) != r.Tenants {
			t.Fatalf("%s: %d tenant rows, want %d", label, len(c.Tenants), r.Tenants)
		}
		for _, tm := range c.Tenants {
			if tm.Throughput <= 0 {
				t.Errorf("%s/%s: non-positive throughput %g", label, tm.Tenant, tm.Throughput)
			}
			if tm.P99 < tm.P50 {
				t.Errorf("%s/%s: p99 %g below p50 %g", label, tm.Tenant, tm.P99, tm.P50)
			}
			if tm.P50 < 0 {
				t.Errorf("%s/%s: negative queue time %g", label, tm.Tenant, tm.P50)
			}
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	out := sb.String()
	for _, want := range []string{"rho=0.5", "rho=2", "bursty", "skewed", "pass"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table misses %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Error("rendered table reports an oracle failure")
	}
}

// TestPercentile pins the nearest-rank helper on a known sequence.
func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if p := percentile(v, 0.5); p != 3 {
		t.Errorf("p50 = %g, want 3", p)
	}
	if p := percentile(v, 0.99); p != 5 {
		t.Errorf("p99 = %g, want 5", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %g, want 0", p)
	}
	// The input must stay unsorted (percentile copies).
	if v[0] != 5 {
		t.Error("percentile mutated its input")
	}
}
