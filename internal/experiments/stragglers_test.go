package experiments

import (
	"strings"
	"testing"
)

// TestRunStragglers pins the study's reason to exist: under the
// slowdown plans, speculation must reduce the makespan for at least the
// paper's scheduler (multiprio) and dmdas on every workload, with every
// run oracle-validated.
func TestRunStragglers(t *testing.T) {
	r := quickResult[*StragglersResult](t, "stragglers")
	if len(r.Cells) != 2*len(faultSchedulers) {
		t.Fatalf("cells = %d, want %d", len(r.Cells), 2*len(faultSchedulers))
	}
	for _, c := range r.Cells {
		if !c.OracleOK {
			t.Errorf("%s/%s failed the oracle", c.Workload, c.Scheduler)
		}
		if c.Slowed <= c.Baseline {
			t.Errorf("%s/%s: slowdown plan did not hurt (%g <= %g)",
				c.Workload, c.Scheduler, c.Slowed, c.Baseline)
		}
		if c.Scheduler == "multiprio" || c.Scheduler == "dmdas" {
			if c.Speculated >= c.Slowed {
				t.Errorf("%s/%s: speculation did not help (%g with vs %g without)",
					c.Workload, c.Scheduler, c.Speculated, c.Slowed)
			}
			if c.Stats.ReplicaWins == 0 {
				t.Errorf("%s/%s: no replica wins: %+v", c.Workload, c.Scheduler, c.Stats)
			}
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Straggler mitigation") {
		t.Error("print output missing header")
	}
}
