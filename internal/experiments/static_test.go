package experiments

import (
	"strings"
	"testing"
)

// TestRunStatic pins the study's acceptance claims at quick scale: the
// baselines are run once per (workload, mode), every completed cell
// passes the oracle (static and hybrid including StaticCheck —
// RunStatic fails hard otherwise), hybrid is never worse than pure
// static and completes every kill cell where static strands, and the
// typed workload column is present.
func TestRunStatic(t *testing.T) {
	r := quickResult[*StaticResult](t, "static")
	if r.Fallback != "multiprio" {
		t.Fatalf("default fallback = %q, want multiprio", r.Fallback)
	}
	wantCells := 3 * len(staticModes) * len(staticScenarios)
	if len(r.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(r.Cells), wantCells)
	}
	// One fault-free baseline per (workload, mode), then one run per
	// cell: the scenarios share the baselines.
	if runs, want := quick(t, "static", 8).runs.starts.Load(), int64(3*len(staticModes)+wantCells); runs != want {
		t.Errorf("%d simulator runs, want %d", runs, want)
	}
	if regr := r.HybridRegressions(); len(regr) > 0 {
		t.Fatalf("hybrid regressed vs static: %v", regr)
	}
	typed, stranded := false, 0
	for _, c := range r.Cells {
		typed = typed || c.Workload == "randdag-typed"
		if c.Stranded {
			stranded++
			if c.Mode != "static" {
				t.Errorf("%s/%s/%s: only pure static may strand", c.Workload, c.Mode, c.Scenario)
			}
			continue
		}
		if c.Mode == "hybrid" && c.Stats.Kills > 0 && c.KillRepairs == 0 {
			t.Errorf("%s/%s: kills applied but no kill repair logged", c.Workload, c.Scenario)
		}
	}
	if !typed {
		t.Error("study is missing the typed randdag column")
	}
	if stranded == 0 {
		t.Error("no kill cell stranded pure static replay")
	}

	// An unknown fallback must fail fast, through the registry's
	// Fallback validation, and the table entry's error names the study.
	_, err := studyNamed(t, "static").Run(&Ctx{Fallback: "no-such-policy"})
	if err == nil || !strings.HasPrefix(err.Error(), "static: fallback: ") {
		t.Errorf("unknown fallback: error %v, want static: fallback: ...", err)
	}

	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Static vs dynamic vs hybrid") {
		t.Error("print output missing header")
	}
	if !strings.Contains(sb.String(), "VERDICT: hybrid never worse") {
		t.Error("print output missing clean verdict")
	}
}
