package schedtest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden canonical-trace digests")

// TestCanonicalTraceGolden pins the SHA-256 digest of the canonical
// trace of every (workload, policy) conformance run. The digests were
// recorded before the scheduler/simulator hot-path optimization pass, so
// this test is the standing proof that performance work does not change
// scheduling behaviour: any drift in task placement, ordering, transfer
// timing or the memory-event stream shows up as a digest mismatch.
//
// After an *intentional* behaviour change, regenerate with
// `go test ./internal/sched/schedtest -run TestCanonicalTraceGolden -update`.
func TestCanonicalTraceGolden(t *testing.T) {
	m := conformanceMachine()
	var got bytes.Buffer
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			g := w.build()
			res, err := sim.Run(m, g, pol.mk(), runtime.WithMemEvents())
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, pol.name, err)
			}
			fmt.Fprintf(&got, "%s/%s %x\n", w.name, pol.name, sha256.Sum256(res.Trace.Canonical()))
		}
	}
	path := filepath.Join("testdata", "canonical_sha256.golden")
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
		t.Fatalf("missing golden digests (run with -update to create): %v", err)
	}
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
			t.Fatalf("canonical trace digest drifted at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
