package sim

import (
	"math/rand"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
)

// checkMemoryInvariants cross-validates the memory manager's byte
// accounting against the replica states after a run:
//   - no pins outstanding, no waiters parked,
//   - used[mem] equals the summed sizes of non-invalid replicas,
//   - every handle has at least one valid replica (data never lost),
//   - dirty replicas are sole copies.
func checkMemoryInvariants(t *testing.T, eng *simulation) {
	t.Helper()
	mm := eng.mm
	used := make([]int64, len(mm.used))
	for _, st := range mm.states {
		valid, dirty := 0, 0
		for mem := range st.repl {
			r := &st.repl[mem]
			if r.pin != 0 {
				t.Errorf("handle %q pinned (%d) on mem %d after run", st.h.Name, r.pin, mem)
			}
			if ws := mm.waitq[mm.wkey(st.h.ID, platform.MemID(mem))]; len(ws) != 0 {
				t.Errorf("handle %q has %d waiters on mem %d after run", st.h.Name, len(ws), mem)
			}
			switch r.state {
			case replValid:
				valid++
				used[mem] += st.h.Bytes
				if r.dirty {
					dirty++
				}
			case replFetching:
				used[mem] += st.h.Bytes
				t.Errorf("handle %q still fetching to mem %d after run", st.h.Name, mem)
			}
		}
		if valid == 0 {
			t.Errorf("handle %q has no valid replica (data lost)", st.h.Name)
		}
		// Dirty means "RAM is stale": dirty replicas and a valid RAM
		// copy are mutually exclusive, and a stale RAM must leave a
		// dirty owner responsible for the eventual write-back.
		ramValid := st.repl[0].state == replValid
		if dirty > 0 && ramValid {
			t.Errorf("handle %q dirty with a valid RAM copy", st.h.Name)
		}
		if !ramValid && valid > 0 && dirty == 0 {
			t.Errorf("handle %q: RAM stale but no dirty owner", st.h.Name)
		}
		if st.repl[0].dirty {
			t.Errorf("handle %q: RAM replica flagged dirty", st.h.Name)
		}
	}
	for mem := range used {
		if used[mem] != mm.used[mem] {
			t.Errorf("mem %d accounting: counted %d, recorded %d", mem, used[mem], mm.used[mem])
		}
	}
}

// TestMemoryInvariantsAfterRandomWorkloads replays random heterogeneous
// workloads and verifies the coherence bookkeeping.
func TestMemoryInvariantsAfterRandomWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := tinyMachine(1 << 24) // small GPU memory: exercises eviction
		g := runtime.NewGraph()
		handles := make([]*runtime.DataHandle, 12)
		for i := range handles {
			handles[i] = g.NewData("h", int64(rng.Intn(1<<22)+1024))
		}
		for i := 0; i < 60; i++ {
			var cost []float64
			if rng.Intn(2) == 0 {
				cost = []float64{0.002, 0.0005}
			} else {
				cost = []float64{0.001, 0}
			}
			mode := []runtime.AccessMode{runtime.R, runtime.RW, runtime.W, runtime.Commute}[rng.Intn(4)]
			acc := []runtime.Access{{Handle: handles[rng.Intn(len(handles))], Mode: mode}}
			if rng.Intn(2) == 0 {
				h2 := handles[rng.Intn(len(handles))]
				if h2 != acc[0].Handle {
					acc = append(acc, runtime.Access{Handle: h2, Mode: runtime.R})
				}
			}
			g.Submit(&runtime.Task{Kind: "k", Cost: cost, Accesses: acc})
		}

		var sched runtime.Scheduler
		switch seed % 3 {
		case 0:
			sched = core.New(core.Defaults())
		case 1:
			sched = dmdas.New(dmdas.DMDA)
		default:
			sched = eager.New()
		}
		e, err := NewEngine(m, sched, runtime.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		eng, _, err := e.simulate(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkMemoryInvariants(t, eng)
	}
}
