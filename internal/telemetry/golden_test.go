package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the telemetry golden files")

// quickRunProbe executes the seeded quick run of the goldens — a small
// Cholesky under the paper's policy on the simulator — with a telemetry
// probe attached as the run observer.
func quickRunProbe(t *testing.T) *Probe {
	t.Helper()
	m, err := platform.NewHeteroNode("telem", 5, 10, 2, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProbe()
	g := dense.Cholesky(dense.Params{Tiles: 4, TileSize: 256, Machine: m, UserPriorities: true})
	if _, err := sim.Run(m, g, core.New(core.Defaults()), runtime.WithObserver(p)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMetricsGoldenQuickRun pins the complete /metrics body of the
// seeded quick run. The simulator is deterministic in virtual time and
// the exposition writer emits no wall-clock state, so the body is
// byte-stable; any drift means either an intentional metric change
// (regenerate with -update) or nondeterminism in the telemetry path
// (a bug).
func TestMetricsGoldenQuickRun(t *testing.T) {
	p := quickRunProbe(t)
	var got bytes.Buffer
	if err := p.Snapshot().WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "metrics_quickrun.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("/metrics drifted at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}

// TestMetricsQuickRunInvariants re-parses the golden run's exposition
// through the strict parser and checks the semantic content: the
// tenant histograms are populated, every decision kind observed by the
// run is counted, and the run accounting closed.
func TestMetricsQuickRunInvariants(t *testing.T) {
	p := quickRunProbe(t)
	var buf bytes.Buffer
	if err := p.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	_, samples := parseProm(t, buf.String())
	series := make(map[string]float64)
	for _, s := range samples {
		key := s.name
		for _, k := range []string{"tenant", "kind", "result"} {
			if v, ok := s.labels[k]; ok {
				key += "|" + v
			}
		}
		series[key] = s.value
	}
	tasks := 4 * 5 * 6 / 6 // cholesky task count for tiles=4: t(t+1)(t+2)/6
	if got := series["multiprio_tenant_queue_seconds_count|all"]; got != float64(tasks) {
		t.Errorf("queue histogram count = %g, want %d", got, tasks)
	}
	if got := series["multiprio_tasks_completed_total|all"]; got != float64(tasks) {
		t.Errorf("completions = %g, want %d", got, tasks)
	}
	if series["multiprio_sched_decisions_total|done"] != float64(tasks) {
		t.Errorf("done decisions = %g", series["multiprio_sched_decisions_total|done"])
	}
	if series["multiprio_sched_decisions_total|pop"] < float64(tasks) {
		t.Errorf("pop decisions = %g, want >= %d", series["multiprio_sched_decisions_total|pop"], tasks)
	}
	if series["multiprio_runs_total|ok"] != 1 {
		t.Errorf("runs ok = %g", series["multiprio_runs_total|ok"])
	}
	if series["multiprio_runs_inflight"] != 0 {
		t.Errorf("runs inflight = %g", series["multiprio_runs_inflight"])
	}
	if series["multiprio_run_makespan_seconds_count"] != 1 {
		t.Errorf("makespan observations = %g", series["multiprio_run_makespan_seconds_count"])
	}
}
