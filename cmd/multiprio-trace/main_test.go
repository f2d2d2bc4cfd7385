package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCholeskySmokeGolden builds the command and runs
//
//	multiprio-trace -app cholesky -tiles 6 -platform smallsim -sched multiprio -decisions decisions.log
//
// twice. Both times standard output and the decision log equal
// testdata/cholesky6.stdout and testdata/cholesky6.decisions, which that
// command wrote, byte for byte — so the runs equal each other too.
func TestCholeskySmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a subprocess")
	}
	exe := filepath.Join(t.TempDir(), "multiprio-trace")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for run := 1; run <= 2; run++ {
		cmd := exec.Command(exe, "-app", "cholesky", "-tiles", "6", "-platform", "smallsim",
			"-sched", "multiprio", "-decisions", "decisions.log")
		cmd.Dir = t.TempDir()
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		decisions, err := os.ReadFile(filepath.Join(cmd.Dir, "decisions.log"))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]byte{"cholesky6.stdout": stdout, "cholesky6.decisions": decisions} {
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("run %d: %d bytes that differ from the %d of testdata/%s", run, len(got), len(want), name)
			}
		}
	}
}

// TestFMMHeightRange: an -height the octree cannot hold is an error
// naming the range, not a panic in the generator.
func TestFMMHeightRange(t *testing.T) {
	for _, h := range []int{0, 2, 23} {
		err := run(config{app: "fmm", platform: "smallsim", streams: 1, particles: 100, height: h})
		if err == nil || !strings.Contains(err.Error(), "outside [3, 22]") {
			t.Errorf("-height %d: error %v, want the range [3, 22]", h, err)
		}
	}
}
