package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// buildTransferHeavyGraph produces a DAG whose tasks touch several
// handles each, so that every acquire issues multiple fetches and their
// issue order is observable through link FIFO queueing. Regression
// test for the map-iteration nondeterminism in memoryManager.acquire:
// iterating the needs map made transfer order — and through it
// makespans and whole traces — vary between runs of the same seed.
func buildTransferHeavyGraph(seed int64) *runtime.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := runtime.NewGraph()
	handles := make([]*runtime.DataHandle, 24)
	for i := range handles {
		handles[i] = g.NewData("h", int64(rng.Intn(4*int(platform.MiB))+1024))
	}
	for l := 0; l < 8; l++ {
		for w := 0; w < 6; w++ {
			accs := []runtime.Access{{Handle: handles[rng.Intn(len(handles))], Mode: runtime.RW}}
			for k := 0; k < 3; k++ {
				h := handles[rng.Intn(len(handles))]
				dup := false
				for _, a := range accs {
					if a.Handle == h {
						dup = true
					}
				}
				if !dup {
					accs = append(accs, runtime.Access{Handle: h, Mode: runtime.R})
				}
			}
			g.Submit(runtime.TaskSpec{
				Kind:     "k",
				Cost:     []float64{0.002 + rng.Float64()*0.004, 0.0005 + rng.Float64()*0.001},
				Accesses: accs,
			})
		}
	}
	return g
}

func TestSameSeedProducesIdenticalTraces(t *testing.T) {
	m, err := platform.NewHeteroNode("det", 4, 10, 2, 100, 32*platform.MiB, 4e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{3, 11} {
		run := func() []byte {
			g := buildTransferHeavyGraph(seed)
			res, err := Run(m, g, core.New(core.Defaults()), runtime.WithMemEvents())
			if err != nil {
				t.Fatal(err)
			}
			return res.Trace.Canonical()
		}
		first := run()
		for rep := 0; rep < 3; rep++ {
			if again := run(); !bytes.Equal(first, again) {
				t.Fatalf("seed %d: run %d produced a different trace (%d vs %d bytes)",
					seed, rep+2, len(first), len(again))
			}
		}
	}
}
