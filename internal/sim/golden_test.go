package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/fault"
	"multiprio/internal/runtime"
)

var updateGolden = flag.Bool("update", false, "rewrite the fault-run golden digest")

// TestSimFaultPlanGolden pins the SHA-256 digest of the canonical trace
// of one seeded run under a NON-empty fault plan — kills, slowdowns, a
// transfer fault and model noise, so the trace exercises failed spans
// and, crucially, the retry-delay schedule. The empty-plan golden
// (TestSimEmptyPlanKeepsGoldenTraces) proves fault machinery off is
// byte-neutral; this one freezes the behavior with it ON, so a change
// to recovery timing (e.g. the exponential backoff or its jitter) is a
// conscious, reviewed golden update:
//
//	go test ./internal/sim -run TestSimFaultPlanGolden -update
func TestSimFaultPlanGolden(t *testing.T) {
	m := faultMachine(t)
	plan := fault.Generate(m, fault.Spec{
		Seed: 99, Horizon: 0.05,
		Kills: 2, Slowdowns: 2, TransferFaults: 1, ModelNoise: 0.1,
	})
	res, err := Run(m, faultGraph(m, 3), core.New(core.Defaults()),
		runtime.WithMemEvents(),
		runtime.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Retries == 0 {
		t.Fatal("golden run has no retries; it would not guard the retry-delay schedule")
	}
	got := []byte(fmt.Sprintf("%x\n", sha256.Sum256(res.Trace.Canonical())))
	path := filepath.Join("testdata", "fault_canonical_sha256.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digest (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fault-run canonical trace drifted:\n got %s want %s", got, want)
	}
}
