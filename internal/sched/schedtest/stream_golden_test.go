package schedtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/stream"
)

// TestStreamT0Golden is this PR's equivalence proof: a streaming run
// whose tasks all arrive at t=0 — an explicit all-zero arrival plan
// through the Fair wrapper with unbounded admission — must reproduce
// the batch-mode canonical trace digests byte for byte, over the full
// workload × policy conformance matrix. Zero arrivals take the exact
// batch code path (no arrival events, no extra sequence numbers) and
// unbounded admission forwards every push inline, so any divergence
// means the streaming layer is not behaviour-neutral when disabled.
//
// The golden file is the batch suite's; this test never updates it.
func TestStreamT0Golden(t *testing.T) {
	m := conformanceMachine()
	var got bytes.Buffer
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			g := w.build()
			plan := stream.SplitEven(len(g.Tasks), 1)
			fair := stream.NewFair(pol.mk(), plan)
			res, err := sim.Run(m, g, fair,
				runtime.WithMemEvents(),
				runtime.WithArrivals(plan.Arrivals))
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, pol.name, err)
			}
			stats := fair.StreamStats()
			if stats.Deferred[0] != 0 {
				t.Fatalf("%s/%s: unbounded wrapper deferred %d tasks", w.name, pol.name, stats.Deferred[0])
			}
			fmt.Fprintf(&got, "%s/%s %x\n", w.name, pol.name, sha256.Sum256(res.Trace.Canonical()))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "canonical_sha256.golden"))
	if err != nil {
		t.Fatalf("missing batch golden digests: %v", err)
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
			t.Fatalf("t=0 streaming run diverged from the batch golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
