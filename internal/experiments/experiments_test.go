package experiments

import (
	"math"
	"strings"
	"testing"

	"multiprio/internal/obs"
	"multiprio/internal/runtime"
)

func TestTable2MatchesPaper(t *testing.T) {
	r, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := RunFig3()
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := RunFig4(Quick, false)
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := RunFig7()
	if err != nil {
		t.Fatal(err)
	}
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

// runCounter is a RunObserver counting run brackets.
type runCounter struct{ starts, ends int }

func (c *runCounter) Decision(obs.Decision)                   {}
func (c *runCounter) Counter(string, float64, int64, float64) {}
func (c *runCounter) RunStart(runtime.RunInfo)                { c.starts++ }
func (c *runCounter) RunEnd(*runtime.Result, error)           { c.ends++ }

// TestObserverSeesStudyRuns: the package observer reaches a study that
// calls the simulator itself rather than through runOne (fig4's two
// runs went unobserved before every driver went through simulate).
func TestObserverSeesStudyRuns(t *testing.T) {
	c := &runCounter{}
	SetObserver(c)
	defer SetObserver(nil)
	if _, err := RunFig4(Quick, false); err != nil {
		t.Fatal(err)
	}
	if c.starts != 2 || c.ends != 2 {
		t.Errorf("observer saw %d RunStart / %d RunEnd over fig4's two runs", c.starts, c.ends)
	}
}
