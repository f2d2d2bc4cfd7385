package schedtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/oracle"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/telemetry"
)

// TestCanonicalTraceGoldenTelemetry reruns the full 8-policy conformance
// matrix on BOTH engines with a telemetry probe attached as the run
// observer and proves the telemetry layer is behaviour-neutral:
//
//   - Simulator: the canonical trace digests must be byte-identical to
//     testdata/canonical_sha256.golden, the same file the unobserved and
//     probe-observed runs pin. Aggregation that advanced the sequencer,
//     took a scheduling-visible lock, or mutated shared state would
//     drift the digests.
//   - Threaded engine: wall-clock traces are not digest-stable, so every
//     telemetry-observed run must instead pass the execution oracle,
//     over all 8 policies.
//
// The test also guards against passing vacuously: the probe must have
// aggregated every completion of the matrix into the tenant histograms.
func TestCanonicalTraceGoldenTelemetry(t *testing.T) {
	m := conformanceMachine()
	p := telemetry.NewProbe()
	var got bytes.Buffer
	totalTasks := 0
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			g := w.build()
			totalTasks += len(g.Tasks)
			res, err := sim.Run(m, g, pol.mk(),
				runtime.WithMemEvents(),
				runtime.WithObserver(p))
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, pol.name, err)
			}
			fmt.Fprintf(&got, "%s/%s %x\n", w.name, pol.name, sha256.Sum256(res.Trace.Canonical()))
		}
	}

	want, err := os.ReadFile(filepath.Join("testdata", "canonical_sha256.golden"))
	if err != nil {
		t.Fatalf("missing golden digests (run TestCanonicalTraceGolden -update first): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("telemetry-observed run drifted from unobserved goldens — telemetry perturbed scheduling:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}

	// Non-vacuousness: every effective completion of the sim matrix must
	// have landed in the aggregates.
	var completions, queueCount float64
	for _, f := range p.Snapshot().Families {
		for _, mt := range f.Metrics {
			switch f.Name {
			case "multiprio_tasks_completed_total":
				completions += mt.Value
			case "multiprio_tenant_queue_seconds":
				queueCount += float64(mt.Count)
			}
		}
	}
	if completions != float64(totalTasks) || queueCount != float64(totalTasks) {
		t.Fatalf("telemetry aggregated %g completions / %g queue samples, matrix ran %d tasks",
			completions, queueCount, totalTasks)
	}
	if ok, reason := p.Health().Healthy(); !ok {
		t.Fatalf("healthy matrix degraded health: %s", reason)
	}

	// Threaded half: all 8 policies under observation, oracle-checked.
	tw := conformanceWorkloads(m)[0] // cholesky
	for _, pol := range policies {
		pol := pol
		t.Run("threaded/"+pol.name, func(t *testing.T) {
			t.Parallel()
			g := tw.build()
			eng, err := runtime.NewThreadedEngine(m, pol.mk(), runtime.WithObserver(telemetry.NewProbe()))
			if err != nil {
				t.Fatalf("NewThreadedEngine: %v", err)
			}
			res, err := eng.Run(g)
			if err != nil {
				t.Fatalf("threaded run: %v", err)
			}
			if err := oracle.Check(g, res.Trace, oracle.Options{}); err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if err := checkRunState(res); err != nil {
				t.Fatalf("run state: %v", err)
			}
		})
	}
}
