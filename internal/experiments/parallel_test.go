package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// TestParallelSweepIdentical pins the determinism contract of the sweep
// runner on every study: the table rendered from the study's shared
// 8-worker run is byte-identical to the serial recording in
// testdata/<study>_quick.golden (per-configuration seeds come from the
// configuration index, never a shared RNG, and results are reduced in
// configuration order). It reads the run TestGoldenStudies compares, so
// it costs no second execution, and prints both tables whole on a
// mismatch. Under -update that run is the serial one being recorded,
// so there is nothing to compare.
func TestParallelSweepIdentical(t *testing.T) {
	for _, s := range Studies() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if *update {
				t.Skip("the -update run is serial")
			}
			serial, err := os.ReadFile(filepath.Join("testdata", s.Name+"_quick.golden"))
			if err != nil {
				t.Fatal(err)
			}
			if parallel := quick(t, s.Name).table; !bytes.Equal(serial, parallel) {
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

// TestWorkloadBuildsOnce takes one workload's graph from eight
// goroutines at once: the generator runs once, every goroutine gets the
// same graph, and the graph comes out validated, so the Validate each
// goroutine then calls (as every run does) only reads — under -race, a
// write there would be reported against the other goroutines' reads.
func TestWorkloadBuildsOnce(t *testing.T) {
	m := platform.SmallSim(platform.Config{})
	var calls atomic.Int32
	w := newWorkload("randdag", m, func() (*runtime.Graph, error) {
		calls.Add(1)
		return randdag.Build(randdag.Params{Layers: 6, Width: 10, Machine: m, Seed: 1}), nil
	})
	graphs := make([]*runtime.Graph, 8)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := w.graph()
			if err == nil {
				err = g.Validate()
			}
			if err != nil {
				t.Error(err)
				return
			}
			for _, task := range g.Tasks {
				_ = task.Succs()
			}
			graphs[i] = g
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("generator called %d times, want 1", n)
	}
	for i, g := range graphs {
		if g == nil || g != graphs[0] {
			t.Fatalf("goroutine %d got graph %p, goroutine 0 got %p", i, g, graphs[0])
		}
	}

	// A graph that fails validation is never handed out: grid reports
	// the error under the workload's name.
	bad := newWorkload("bad", m, func() (*runtime.Graph, error) {
		g := runtime.NewGraph()
		g.Submit(runtime.TaskSpec{Kind: "nothing"})
		return g, nil
	})
	_, err := grid(&Ctx{Workers: 2}, []workload{bad}, 2, func(workload, *runtime.Graph, int) (int, error) {
		t.Error("cell ran on a graph that failed validation")
		return 0, nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "bad: ") {
		t.Errorf("invalid graph: error %v, want bad: ...", err)
	}
}
