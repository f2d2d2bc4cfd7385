package oracle

import (
	"strings"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/distrib"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"
	"multiprio/internal/trace"

	_ "multiprio/internal/sched/all"
)

// runClusterSim executes a random DAG on a 2-node cluster through the
// two-level distributor, with the full memory-event stream collected so
// Check runs the inter-node transfer replay.
func runClusterSim(t *testing.T) (*runtime.Graph, *sim.Result) {
	t.Helper()
	m, err := platform.UniformCluster("oc2", 2, func(i int) (*platform.Machine, error) {
		name := []string{"na", "nb"}[i]
		return platform.NewHeteroNode(name, 4, 10, 1, 100, 8*platform.MiB, 5e9, platform.Config{})
	}, 2e9, 2e-5)
	if err != nil {
		t.Fatal(err)
	}
	g := randdag.Build(randdag.Params{Layers: 6, Width: 8, CommuteShare: 0.2, Machine: m, Seed: 11})
	sched, err := distrib.New("multiprio", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, g, sched, runtime.WithMemEvents())
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return g, res
}

func crossIndices(tr *trace.Trace) []int {
	var idx []int
	for i := range tr.Xfers {
		x := &tr.Xfers[i]
		if tr.Machine.NodeOfMem(x.Src) != tr.Machine.NodeOfMem(x.Dst) {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestClusterReplayAccepts pins that an untampered multi-node run —
// which necessarily moves data across the interconnect, since every
// handle is homed on node 0 — satisfies the inter-node replay.
func TestClusterReplayAccepts(t *testing.T) {
	g, res := runClusterSim(t)
	if len(crossIndices(res.Trace)) == 0 {
		t.Fatal("run produced no inter-node transfers; the replay is not being exercised")
	}
	if err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Fatalf("oracle rejected a valid cluster run: %v", err)
	}
}

// TestClusterReplayCatchesTeleportedData removes every inter-node
// transfer from the trace: the values read across nodes then appear out
// of thin air, which the replay must flag.
func TestClusterReplayCatchesTeleportedData(t *testing.T) {
	g, res := runClusterSim(t)
	tr := res.Trace
	kept := tr.Xfers[:0]
	for i := range tr.Xfers {
		x := tr.Xfers[i]
		if tr.Machine.NodeOfMem(x.Src) == tr.Machine.NodeOfMem(x.Dst) {
			kept = append(kept, x)
		}
	}
	tr.Xfers = kept
	err := Check(g, tr, Options{OverflowBytes: res.OverflowBytes})
	if err == nil {
		t.Fatal("oracle accepted cross-node reads with no interconnect transfers")
	}
	if !strings.Contains(err.Error(), "no interconnect transfer") {
		t.Errorf("error does not name the missing traversal: %v", err)
	}
}

// TestClusterReplayCatchesSuperluminalTransfer shrinks one inter-node
// transfer below its composite link time.
func TestClusterReplayCatchesSuperluminalTransfer(t *testing.T) {
	g, res := runClusterSim(t)
	tr := res.Trace
	idx := crossIndices(tr)
	if len(idx) == 0 {
		t.Fatal("no inter-node transfers to tamper with")
	}
	x := &tr.Xfers[idx[0]]
	x.End = x.Start + (x.End-x.Start)/2
	err := Check(g, tr, Options{OverflowBytes: res.OverflowBytes})
	if err == nil {
		t.Fatal("oracle accepted a transfer faster than its link")
	}
	if !strings.Contains(err.Error(), "below the") {
		t.Errorf("error does not name the link-time bound: %v", err)
	}
}

// TestClusterReplayIgnoresFailedDeliveries marks every inter-node
// transfer failed: a failed transfer drops its payload on arrival, so
// it cannot be the delivery that satisfied a cross-node read.
func TestClusterReplayIgnoresFailedDeliveries(t *testing.T) {
	g, res := runClusterSim(t)
	tr := res.Trace
	for _, i := range crossIndices(tr) {
		tr.Xfers[i].Failed = true
	}
	if err := Check(g, tr, Options{OverflowBytes: res.OverflowBytes}); err == nil {
		t.Fatal("oracle accepted failed transfers as valid deliveries")
	}
}

// TestClusterReplaySkipsSingleNode pins the gate: single-node machines
// never enter the inter-node replay, even with memory events present.
func TestClusterReplaySkipsSingleNode(t *testing.T) {
	m, err := platform.NewHeteroNode("solo", 4, 10, 1, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := randdag.Build(randdag.Params{Layers: 4, Width: 6, Machine: m, Seed: 3})
	sched, err := distrib.New("multiprio", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, g, sched, runtime.WithMemEvents())
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Fatalf("oracle rejected a single-node distrib run: %v", err)
	}
}
