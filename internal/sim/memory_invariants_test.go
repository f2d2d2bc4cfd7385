package sim

import (
	"math/rand"
	"slices"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
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
	checkLRULists(t, mm)
}

// checkLRULists verifies the per-node recency lists: a listed node (one
// with a capacity, or a device node) lists exactly the replicas holding
// space on it, through consistent links; an unlisted node keeps no list
// at all.
func checkLRULists(t *testing.T, mm *memoryManager) {
	t.Helper()
	for mem := range mm.lru {
		l := mm.lru[mem]
		mid := platform.MemID(mem)
		if want := mm.machine.Mems[mem].CapacityBytes > 0 || mid != platform.MemRAM; l.listed != want {
			t.Errorf("mem %d: listed = %v, want %v", mem, l.listed, want)
		}
		listed := map[int32]bool{}
		prev := int32(-1)
		for id := l.head; id >= 0; id = mm.repl(int64(id), mid).lruNext {
			r := mm.repl(int64(id), mid)
			if !l.listed || !r.inLRU || r.lruPrev != prev || listed[id] {
				t.Fatalf("mem %d: broken list at handle %d (listed node %v, inLRU %v, prev %d want %d, seen %v)",
					mem, id, l.listed, r.inLRU, r.lruPrev, prev, listed[id])
			}
			listed[id] = true
			prev = id
		}
		if l.tail != prev {
			t.Errorf("mem %d: tail %d, the walk from the head ends at %d", mem, l.tail, prev)
		}
		for _, h := range mm.handles {
			r := mm.repl(h.ID, mid)
			want := l.listed && r.state != replInvalid
			if listed[int32(h.ID)] != want || r.inLRU != want {
				t.Errorf("mem %d: handle %d in the list %v, inLRU %v, want %v", mem, h.ID, listed[int32(h.ID)], r.inLRU, want)
			}
		}
	}
}

// TestLRUListIsLastUseOrder drives the three list operations at random
// against a slice kept in last-use order. On the capped GPU node the list
// must equal it after every step; on uncapped RAM — which nothing ever
// evicts from or loses — the same calls leave head and tail at -1, and a
// touch still consumes its sequence number.
func TestLRUListIsLastUseOrder(t *testing.T) {
	m := tinyMachine(1 << 30)
	g := runtime.NewGraph()
	for i := 0; i < 24; i++ {
		g.NewData("h", 1)
	}
	eng := &simulation{machine: m, graph: g}
	mm := newMemoryManager(eng, g)
	if l := mm.lru[platform.MemRAM]; l.listed || l.head != -1 || l.tail != -1 {
		t.Fatalf("uncapped RAM starts with list %+v after %d home placements", l, len(g.Handles))
	}
	const gpu = platform.MemID(1)
	rng := rand.New(rand.NewSource(3))
	var order []int64 // least recently used first
	for step := 0; step < 5000; step++ {
		id := int64(rng.Intn(len(g.Handles)))
		at := slices.Index(order, id)
		seq := eng.seq
		switch op := rng.Intn(3); {
		case at < 0:
			mm.lruPush(gpu, id)
			mm.lruPush(platform.MemRAM, id)
			order = append(order, id)
		case op == 0:
			mm.lruRemove(gpu, id)
			mm.lruRemove(platform.MemRAM, id)
			order = slices.Delete(order, at, at+1)
		default:
			mm.lruTouch(gpu, id)
			mm.lruTouch(platform.MemRAM, id)
			order = append(slices.Delete(order, at, at+1), id)
			if eng.seq != seq+2 {
				t.Fatalf("step %d: two touches moved seq by %d", step, eng.seq-seq)
			}
		}
		var got []int64
		for id := mm.lru[gpu].head; id >= 0; id = mm.repl(int64(id), gpu).lruNext {
			got = append(got, int64(id))
		}
		if !slices.Equal(got, order) {
			t.Fatalf("step %d: GPU list %v, last-use order %v", step, got, order)
		}
		if l := mm.lru[platform.MemRAM]; l.head != -1 || l.tail != -1 || mm.repl(id, platform.MemRAM).inLRU {
			t.Fatalf("step %d: unlisted RAM grew a list: %+v", step, l)
		}
	}
}

// TestCappedRAMEvicts: give host RAM a capacity and it is a listed node
// like any other — allocate evicts its least recently used replica to
// stay under it, and the oracle's capacity replay agrees. (The manager
// drops a RAM victim as a clean copy; what keeps this run sound is that
// the victim's value also sits on the GPU, where its only later reader
// runs.)
func TestCappedRAMEvicts(t *testing.T) {
	m := tinyMachine(0)
	m.Mems[platform.MemRAM].CapacityBytes = 3*platform.MiB + 1024
	g := runtime.NewGraph()
	a := g.NewData("a", platform.MiB)
	g.NewData("b", platform.MiB)
	g.NewData("c", platform.MiB)
	s := g.NewData("s", 8)
	d := g.NewDataOn("d", platform.MiB, 1)
	// The GPU reads a, then (ordered through s) the CPU reads d, which
	// lives on the GPU: staging it in full RAM evicts a, RAM's oldest.
	gpuOnlyTask(g, "ra", 0.001, runtime.Access{Handle: a, Mode: runtime.R}, runtime.Access{Handle: s, Mode: runtime.W})
	g.Submit(runtime.TaskSpec{Kind: "rd", Cost: []float64{0.001, 0},
		Accesses: []runtime.Access{{Handle: s, Mode: runtime.RW}, {Handle: d, Mode: runtime.R}}})
	gpuOnlyTask(g, "ra2", 0.001, runtime.Access{Handle: a, Mode: runtime.R}, runtime.Access{Handle: s, Mode: runtime.R})
	e, err := NewEngine(m, eager.New(), runtime.WithMemEvents())
	if err != nil {
		t.Fatal(err)
	}
	eng, res, err := e.simulate(g)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.mm.lru[platform.MemRAM].listed {
		t.Fatal("capped RAM keeps no LRU list")
	}
	if st := eng.mm.repl(a.ID, platform.MemRAM).state; st != replInvalid {
		t.Errorf("a still on RAM (state %d): nothing was evicted", st)
	}
	if st := eng.mm.repl(a.ID, 1).state; st != replValid {
		t.Errorf("a not valid on the GPU (state %d)", st)
	}
	if res.OverflowBytes[platform.MemRAM] != 0 {
		t.Errorf("RAM overflowed by %d bytes with an evictable replica", res.OverflowBytes[platform.MemRAM])
	}
	if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Fatalf("oracle rejected the run: %v", err)
	}
	checkLRULists(t, eng.mm)
}

// TestUncappedDeviceLossDrains: a device node without a capacity never
// evicts, but it can still be lost — so it keeps its list, and killing
// its only worker drains the sole copies it holds to RAM through
// loseNode.
func TestUncappedDeviceLossDrains(t *testing.T) {
	m, err := platform.NewHeteroNode("uncapped", 3, 10, 1, 100, 0, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gpu := platform.UnitID(len(m.Units) - 1)
	base, err := Run(m, rwChains(), core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.KillWorker, Worker: gpu, At: 0.3 * base.Makespan}}}
	g := rwChains()
	e, err := NewEngine(m, core.New(core.Defaults()), runtime.WithMemEvents(), runtime.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	eng, res, err := e.simulate(g)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.mm.lru[m.Units[gpu].Mem].listed {
		t.Fatal("uncapped device node keeps no LRU list")
	}
	if res.Faults.LostReplicas == 0 {
		t.Fatal("the dead device held no replica to drain: the kill landed on an empty node")
	}
	checkFaultRun(t, g, res, plan)
	checkMemoryInvariants(t, eng)
	for _, h := range g.Handles {
		if st := eng.mm.repl(h.ID, m.Units[gpu].Mem).state; st != replInvalid {
			t.Errorf("handle %d still on the lost node (state %d)", h.ID, st)
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
			g.Submit(runtime.TaskSpec{Kind: "k", Cost: cost, Accesses: acc})
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
		e, err := NewEngine(m, sched)
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

// TestRepeatedHandlesPinOnce runs random workloads whose tasks name a
// handle more than once, in mixed modes: acquire must pin each distinct
// handle once and release unpin it once (a second unpin panics, a
// missing one leaves a pin behind), while a task without repeats skips
// the deduplication.
func TestRepeatedHandlesPinOnce(t *testing.T) {
	modes := []runtime.AccessMode{runtime.R, runtime.RW, runtime.W, runtime.Commute}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := tinyMachine(1 << 24)
		g := runtime.NewGraph()
		handles := make([]*runtime.DataHandle, 6)
		for i := range handles {
			handles[i] = g.NewData("h", int64(rng.Intn(1<<22)+1024))
		}
		repeats := 0
		for i := 0; i < 60; i++ {
			acc := make([]runtime.Access, 1+rng.Intn(4))
			for j := range acc {
				acc[j] = runtime.Access{Handle: handles[rng.Intn(len(handles))], Mode: modes[rng.Intn(len(modes))]}
			}
			if g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{0.002, 0.0005}, Accesses: acc}).Repeats() {
				repeats++
			}
		}
		if repeats == 0 {
			t.Fatalf("seed %d: no task repeats a handle", seed)
		}
		var sched runtime.Scheduler = eager.New()
		if seed%2 == 0 {
			sched = dmdas.New(dmdas.DMDA)
		}
		e, err := NewEngine(m, sched)
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
