package schedtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/core"
	"multiprio/internal/obs"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sim"
)

// TestCanonicalTraceGoldenObserved reruns the full conformance matrix
// with a probe attached — decision log AND metrics recorder fanned out
// through obs.Multi — and checks the canonical trace digests against
// the SAME golden file as the unobserved run. This is the standing
// proof of the observability layer's core contract: observation never
// perturbs scheduling. A probe that advances the sequencer, mutates
// replica state, or changes an iteration order shows up here as a
// digest mismatch against testdata/canonical_sha256.golden.
func TestCanonicalTraceGoldenObserved(t *testing.T) {
	m := conformanceMachine()
	var got bytes.Buffer
	var decisions, samples int
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			g := w.build()
			dl := &obs.DecisionLog{}
			mx := obs.NewMetrics()
			res, err := sim.Run(m, g, pol.mk(),
				runtime.WithMemEvents(),
				runtime.WithProbe(obs.Multi{dl, mx}))
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, pol.name, err)
			}
			fmt.Fprintf(&got, "%s/%s %x\n", w.name, pol.name, sha256.Sum256(res.Trace.Canonical()))
			decisions += dl.Len()
			for _, trk := range mx.Tracks() {
				samples += len(trk.Samples)
			}
		}
	}
	// Guard against the test passing vacuously because instrumentation
	// got disconnected: the matrix must actually produce observations.
	if decisions == 0 {
		t.Fatal("probe attached but no decision events recorded")
	}
	if samples == 0 {
		t.Fatal("probe attached but no counter samples recorded")
	}

	want, err := os.ReadFile(filepath.Join("testdata", "canonical_sha256.golden"))
	if err != nil {
		t.Fatalf("missing golden digests (run TestCanonicalTraceGolden -update first): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("observed run drifted from unobserved goldens — a probe perturbed scheduling:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestDecisionLogGolden pins the full canonical decision-log text of a
// small Cholesky run under the two schedulers with the richest
// instrumentation. Unlike the SHA-256 trace goldens this golden is
// human-readable: a diff shows exactly which decision changed. It also
// runs each configuration twice and requires byte-identical logs, so
// any nondeterminism in the instrumentation itself (map iteration,
// unstable ordering) fails even before a golden is recorded.
func TestDecisionLogGolden(t *testing.T) {
	m := conformanceMachine()
	var got bytes.Buffer
	for _, pol := range []struct {
		name string
	}{{"multiprio"}, {"dmdas"}} {
		var prev []byte
		for run := 0; run < 2; run++ {
			g := dense.Cholesky(dense.Params{Tiles: 4, TileSize: 256, Machine: m, UserPriorities: true})
			dl := &obs.DecisionLog{}
			var err error
			switch pol.name {
			case "multiprio":
				_, err = sim.Run(m, g, core.New(core.Defaults()), runtime.WithProbe(dl))
			case "dmdas":
				_, err = sim.Run(m, g, dmdas.New(dmdas.DMDAS), runtime.WithProbe(dl))
			}
			if err != nil {
				t.Fatalf("%s run %d: %v", pol.name, run, err)
			}
			var buf bytes.Buffer
			if err := dl.WriteCanonical(&buf); err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				prev = append([]byte(nil), buf.Bytes()...)
				fmt.Fprintf(&got, "# %s (%d decisions)\n", pol.name, dl.Len())
				got.Write(buf.Bytes())
			} else if !bytes.Equal(prev, buf.Bytes()) {
				t.Fatalf("%s: decision log differs between identical runs — instrumentation is nondeterministic", pol.name)
			}
		}
	}

	path := filepath.Join("testdata", "decision_log.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing decision-log golden (run with -update to create): %v", err)
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
				t.Fatalf("decision log drifted at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
