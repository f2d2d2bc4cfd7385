// Package examples_test compiles and runs every example program with
// tiny parameters, asserting a zero exit status and non-empty output,
// and, where a program range-checks a flag, with a value out of range,
// asserting an error exit without a panic.
// The examples are the repository's user-facing entry points; they must
// never rot silently.
package examples_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs subprocesses")
	}
	bin := t.TempDir()
	cases := []struct {
		name string
		args []string
		// bad, when set, are arguments the program must reject.
		bad []string
	}{
		{"quickstart", nil, nil},
		{"cholesky", []string{"-tiles", "4", "-tile", "64"}, nil},
		// 3 tiles is the smallest factorization that emits every kernel
		// kind (one gemm); calibrate requires samples for all four.
		{"calibrate", []string{"-tiles", "3", "-tile", "32", "-out", filepath.Join(bin, "perfmodel.json")}, nil},
		{"fmm", []string{"-particles", "500", "-height", "3"}, []string{"-height", "2"}},
		{"hierarchical", []string{"-blocks", "2", "-sub", "2", "-tile", "64", "-out", bin}, nil},
		{"sparseqr", []string{"-matrix", "cat_ears_4_4"}, nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			exe := filepath.Join(bin, c.name)
			build := exec.CommandContext(ctx, "go", "build", "-o", exe, "./"+c.name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build ./examples/%s: %v\n%s", c.name, err, out)
			}
			run := exec.CommandContext(ctx, exe, c.args...)
			out, err := run.CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", c.name, c.args, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", c.name)
			}
			t.Logf("%s: %d bytes of output", c.name, len(out))
			if c.bad == nil {
				return
			}
			out, err = exec.CommandContext(ctx, exe, c.bad...).CombinedOutput()
			if err == nil || strings.Contains(string(out), "goroutine") {
				t.Fatalf("%s %v: want an error exit without a panic, got %v\n%s", c.name, c.bad, err, out)
			}
		})
	}
}
