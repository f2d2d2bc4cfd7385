package experiments

import (
	"strings"
	"testing"
)

func TestRunHier(t *testing.T) {
	r := quickResult[*HierResult](t, "hier")
	if len(r.Points) != 2 {
		t.Fatalf("points = %d, want 2 platforms", len(r.Points))
	}
	for _, p := range r.Points {
		for _, s := range SchedulerNames() {
			if p.Times[s] <= 0 {
				t.Errorf("%s/%s: no makespan", p.Platform, s)
			}
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Hierarchical") {
		t.Error("print output missing header")
	}
}

func TestRunEnergy(t *testing.T) {
	r := quickResult[*EnergyResult](t, "energy")
	if len(r.Rows) != 9 { // 3 workloads x 3 schedulers
		t.Fatalf("rows = %d, want 9", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Joules <= 0 {
			t.Errorf("%s/%s: non-positive energy %v", row.Workload, row.Scheduler, row.Joules)
		}
		if row.EDP <= 0 || row.EDP < row.Joules*row.Makespan*0.99 {
			t.Errorf("%s/%s: inconsistent EDP", row.Workload, row.Scheduler)
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "EDP") {
		t.Error("print output missing EDP column")
	}
}

func TestRunAblationQuick(t *testing.T) {
	r := quickResult[*AblationResult](t, "ablation")
	// 10 configs x 3 workloads.
	if len(r.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(r.Rows))
	}
	// The default rows anchor the deltas at zero.
	for _, row := range r.Rows {
		if row.Config == "default" && row.DeltaPct != 0 {
			t.Errorf("default config has nonzero delta %v", row.DeltaPct)
		}
		if row.Makespan <= 0 {
			t.Errorf("%s/%s: no makespan", row.Workload, row.Config)
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "no-eviction") {
		t.Error("ablation output missing configurations")
	}
}

func TestRunFig6QuickShapes(t *testing.T) {
	r := quickResult[*Fig6Result](t, "fig6")
	if len(r.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(r.Points))
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "TBFMM") {
		t.Error("fig6 output missing header")
	}
}

func TestRunFig8QuickShapes(t *testing.T) {
	r := quickResult[*Fig8Result](t, "fig8")
	if len(r.Points) != 12 { // 6 matrices x 2 platforms
		t.Fatalf("points = %d, want 12", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Ratio["dmdas"] != 1 {
			t.Errorf("%s/%s: dmdas self-ratio %v, want 1", p.Platform, p.Matrix, p.Ratio["dmdas"])
		}
	}
	// Headline shape: MultiPrio ahead of Dmdas on average on both
	// platforms (the paper's +31% / +12%).
	if g := r.AverageGain("intel-v100"); g <= 0 {
		t.Errorf("intel-v100 average gain %+.1f%%, want positive", g)
	}
	if g := r.AverageGain("amd-a100"); g <= 0 {
		t.Errorf("amd-a100 average gain %+.1f%%, want positive", g)
	}
}

func TestRunFig5QuickShapes(t *testing.T) {
	r := quickResult[*Fig5Result](t, "fig5")
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range r.Points {
		for _, s := range SchedulerNames() {
			if p.GFlops[s] <= 0 {
				t.Errorf("%s/%s/%d: no GFlops for %s", p.Platform, p.Kernel, p.N, s)
			}
		}
	}
}

func TestRunStress(t *testing.T) {
	r := quickResult[*StressResult](t, "stress")
	totalWins := 0
	for _, n := range stressSchedulers() {
		gm := r.GeoMean[n]
		if gm < 1-1e-9 {
			t.Errorf("%s geomean %v below 1 (normalization broken)", n, gm)
		}
		totalWins += r.Wins[n]
	}
	if totalWins != r.Instances {
		t.Errorf("wins %d != instances %d", totalWins, r.Instances)
	}
	// Robustness headline: multiprio within a few percent of the
	// per-instance best across the ensemble.
	if r.GeoMean["multiprio"] > 1.15 {
		t.Errorf("multiprio geomean %.3f, want <= 1.15", r.GeoMean["multiprio"])
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "geomean") {
		t.Error("stress output missing header")
	}
}
