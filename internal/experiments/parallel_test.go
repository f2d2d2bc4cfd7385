package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// TestParallelSweepIdentical pins the determinism contract of the sweep
// runner on every study: the table rendered from an 8-worker pool is
// byte-identical to the serial run (per-configuration seeds come from
// the configuration index, never a shared RNG, and results are reduced
// in configuration order). The two runs are two Ctx values and share
// nothing; under `go test -race` this also proves the pool is data-race
// free.
func TestParallelSweepIdentical(t *testing.T) {
	for _, s := range Studies() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			serial := deterministic(s.Name, quick(t, s.Name, 1).table)
			parallel := deterministic(s.Name, quick(t, s.Name, 8).table)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("table differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

// TestSweepSeedDerivation pins the (base, index) seed derivation: it
// must be deterministic, index-sensitive and base-sensitive, so every
// sweep configuration owns an independent RNG stream regardless of the
// order the pool executes it in.
func TestSweepSeedDerivation(t *testing.T) {
	if SweepSeed(1, 0) != SweepSeed(1, 0) {
		t.Fatal("SweepSeed is not deterministic")
	}
	seen := map[int64]int{}
	for idx := 0; idx < 1000; idx++ {
		s := SweepSeed(1, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SweepSeed(1, %d) collides with index %d", idx, prev)
		}
		seen[s] = idx
	}
	if SweepSeed(1, 5) == SweepSeed(2, 5) {
		t.Error("SweepSeed ignores the base seed")
	}
}

// TestSweepErrorPropagation checks that a failing configuration aborts
// the sweep and surfaces the error of the earliest config in sweep
// order, serial and parallel alike.
func TestSweepErrorPropagation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := sweep(&Ctx{Workers: workers}, 16, func(i int) (int, error) {
			if i >= 10 {
				return 0, errInjected(i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: sweep swallowed the error", workers)
		}
		if got := err.Error(); got != "injected failure at config 10" {
			t.Errorf("workers=%d: first error in config order not surfaced: %q", workers, got)
		}
	}
}

type errInjected int

func (e errInjected) Error() string {
	return fmt.Sprintf("injected failure at config %d", int(e))
}
