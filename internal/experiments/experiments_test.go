package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTable2MatchesPaper(t *testing.T) {
	r := quickResult[*Table2Result](t, "table2")
	want := [2][3]float64{
		{1, 24.0 / 38.0, 9.0 / 38.0},
		{0, 14.0 / 38.0, 29.0 / 38.0},
	}
	for a := 0; a < 2; a++ {
		for i := 0; i < 3; i++ {
			if math.Abs(r.Gain[a][i]-want[a][i]) > 1e-9 {
				t.Errorf("gain[a%d][%s] = %.3f, want %.3f",
					a+1, r.TaskNames[i], r.Gain[a][i], want[a][i])
			}
		}
	}
	if r.HD[0] != 19 || r.HD[1] != 19 {
		t.Errorf("hd = %v, want 19/19", r.HD)
	}
	var sb strings.Builder
	r.Print(&sb)
	// 24/38 = 0.6316: the paper truncates to 0.631, %.3f rounds to 0.632.
	if !strings.Contains(sb.String(), "0.63") {
		t.Errorf("printed table missing the 0.631 gain:\n%s", sb.String())
	}
}

func TestFig3MatchesPaper(t *testing.T) {
	r := quickResult[*Fig3Result](t, "fig3")
	if r.NODT2 != 2.5 {
		t.Errorf("NOD(T2) = %v, want 2.5", r.NODT2)
	}
	if r.NODT3 != 1.0 {
		t.Errorf("NOD(T3) = %v, want 1", r.NODT3)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "2.5") {
		t.Error("printed figure missing NOD value")
	}
}

func TestFig4EvictionReducesGPUIdle(t *testing.T) {
	r := quickResult[*Fig4Result](t, "fig4")
	if r.With.GPUIdlePct >= r.Without.GPUIdlePct {
		t.Errorf("eviction did not reduce GPU idle: %0.1f%% -> %0.1f%%",
			r.Without.GPUIdlePct, r.With.GPUIdlePct)
	}
	if r.With.Makespan >= r.Without.Makespan {
		t.Errorf("eviction did not reduce makespan: %v -> %v",
			r.Without.Makespan, r.With.Makespan)
	}
	if r.With.Evictions == 0 {
		t.Error("eviction-enabled run recorded no evictions")
	}
	if r.Without.Evictions != 0 {
		t.Error("eviction-disabled run recorded evictions")
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "GPU idle") {
		t.Error("printed figure missing idle stats")
	}
}

func TestFig7GeneratorMatchesOpCounts(t *testing.T) {
	r := quickResult[*Fig7Result](t, "fig7")
	if len(r.Rows) != 10 {
		t.Fatalf("%d rows, want 10", len(r.Rows))
	}
	for _, row := range r.Rows {
		rel := math.Abs(row.GeneratedGflop-row.OpCount) / row.OpCount
		if rel > 0.10 {
			t.Errorf("%s: generated %.0f vs published %.0f Gflop", row.Name, row.GeneratedGflop, row.OpCount)
		}
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Rucci1") {
		t.Error("printed table missing matrices")
	}
}

func TestNewSchedulerNames(t *testing.T) {
	for _, n := range []string{"multiprio", "multiprio-noevict", "dmdas", "dmda", "dm", "heteroprio", "lws", "eager"} {
		s, err := NewScheduler(n)
		if err != nil || s == nil {
			t.Errorf("NewScheduler(%q): %v", n, err)
		}
	}
	if _, err := NewScheduler("bogus"); err == nil {
		t.Error("NewScheduler accepted bogus name")
	}
}

func TestPlatformByName(t *testing.T) {
	for _, n := range []string{"intel-v100", "amd-a100", "smallsim"} {
		m, err := PlatformByName(n, 2)
		if err != nil || m == nil {
			t.Errorf("PlatformByName(%q): %v", n, err)
		}
	}
	if _, err := PlatformByName("bogus", 1); err == nil {
		t.Error("PlatformByName accepted bogus name")
	}
}

// TestObserverSeesStudyRuns: the Ctx's observer reaches every simulator
// run of every study, bracketed — also the studies that call the
// simulator themselves rather than through runOne (fig4's two runs went
// unobserved before every driver went through simulate).
func TestObserverSeesStudyRuns(t *testing.T) {
	// These start no run an outside observer could see.
	unobserved := map[string]string{
		"table2": "evaluates the gain heuristic on a scheduler, no engine",
		"fig3":   "evaluates NOD on a scheduler, no engine",
		"fig7":   "builds assembly trees only",
	}
	for _, s := range Studies() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			runs := observed(t, s.Name)
			starts, ends := runs.starts.Load(), runs.ends.Load()
			if starts != ends {
				t.Errorf("observer saw %d RunStart but %d RunEnd", starts, ends)
			}
			if why, exempt := unobserved[s.Name]; exempt && starts != 0 {
				t.Errorf("observer saw %d runs of a study listed as: %s", starts, why)
			} else if !exempt && starts == 0 {
				t.Error("observer saw no run")
			}
		})
	}
}
