package sim

import (
	"math/rand"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/dmdas"
	"multiprio/internal/sched/eager"
)

// checkMemoryInvariants cross-validates the memory manager's byte
// accounting against the replica states after a run:
//   - no pins outstanding, no transfer, join or waiter record live,
//   - used[mem] equals the summed sizes of non-invalid replicas,
//   - every handle has at least one valid replica (data never lost),
//   - dirty replicas are sole copies.
func checkMemoryInvariants(t *testing.T, eng *simulation) {
	t.Helper()
	mm := eng.mm
	// Every transfer, join and waiter record went back to its free list.
	if live := len(mm.xfers.recs) - len(mm.xfers.free); live != 0 {
		t.Errorf("%d transfer records still live after run", live)
	}
	if live := len(mm.joins.recs) - len(mm.joins.free); live != 0 {
		t.Errorf("%d join records still live after run", live)
	}
	if live := len(mm.waiters.recs) - len(mm.waiters.free); live != 0 {
		t.Errorf("%d waiters still parked after run", live)
	}
	used := make([]int64, len(mm.used))
	for _, h := range mm.handles {
		row := mm.row(h.ID)
		valid, dirty := 0, 0
		for mem := range row {
			r := &row[mem]
			if r.pin != 0 {
				t.Errorf("handle %q pinned (%d) on mem %d after run", h.Name, r.pin, mem)
			}
			switch r.state {
			case replValid:
				valid++
				used[mem] += h.Bytes
				if r.dirty {
					dirty++
				}
			case replFetching:
				used[mem] += h.Bytes
				t.Errorf("handle %q still fetching to mem %d after run", h.Name, mem)
			}
		}
		if valid == 0 {
			t.Errorf("handle %q has no valid replica (data lost)", h.Name)
		}
		// Dirty means "RAM is stale": dirty replicas and a valid RAM
		// copy are mutually exclusive, and a stale RAM must leave a
		// dirty owner responsible for the eventual write-back.
		ramValid := row[0].state == replValid
		if dirty > 0 && ramValid {
			t.Errorf("handle %q dirty with a valid RAM copy", h.Name)
		}
		if !ramValid && valid > 0 && dirty == 0 {
			t.Errorf("handle %q: RAM stale but no dirty owner", h.Name)
		}
		if row[0].dirty {
			t.Errorf("handle %q: RAM replica flagged dirty", h.Name)
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
