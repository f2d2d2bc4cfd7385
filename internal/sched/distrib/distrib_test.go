package distrib

import (
	"bytes"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/fault"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"

	_ "multiprio/internal/sched/all"
)

func node(t testing.TB, name string) *platform.Machine {
	t.Helper()
	m, err := platform.NewHeteroNode(name, 4, 10, 1, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cluster(t testing.TB, n int) *platform.Machine {
	t.Helper()
	m, err := platform.UniformCluster("dc", n, func(i int) (*platform.Machine, error) {
		return platform.NewHeteroNode("d"+string(rune('0'+i)), 4, 10, 1, 100, 8*platform.MiB, 5e9, platform.Config{})
	}, 2e9, 2e-5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func graph(m *platform.Machine, seed int64) func() *randdag.Params {
	return func() *randdag.Params {
		return &randdag.Params{Layers: 6, Width: 8, CommuteShare: 0.2, Machine: m, Seed: seed}
	}
}

func TestNewRejectsUnknownInner(t *testing.T) {
	if _, err := New("no-such-policy", registry.Options{}); err == nil {
		t.Fatal("New accepted an unregistered inner policy")
	}
	s, err := New("multiprio", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Name(); got != "distrib:multiprio" {
		t.Errorf("Name() = %q", got)
	}
}

// TestSingleNodePassthrough pins the transparency property on a plain
// (non-cluster) machine: wrapping a policy in the distributor changes
// nothing about the trace, byte for byte.
func TestSingleNodePassthrough(t *testing.T) {
	m := node(t, "solo")
	run := func(wrapped bool) []byte {
		g := randdag.Build(*graph(m, 5)())
		var err error
		sched, err := registry.New("multiprio", registry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if wrapped {
			sched, err = New("multiprio", registry.Options{})
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run(m, g, sched, runtime.WithMemEvents())
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace.Canonical()
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("distrib-wrapped trace differs from the bare policy on a single node")
	}
}

// TestMultiNodeSharding runs a DAG over 3 nodes and checks the
// distributor's accounting: every task owned exactly once, every node
// used, and the sharding deterministic across runs.
func TestMultiNodeSharding(t *testing.T) {
	m := cluster(t, 3)
	run := func() (Stats, []byte) {
		g := randdag.Build(*graph(m, 5)())
		sched, err := New("multiprio", registry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(m, g, sched, runtime.WithMemEvents())
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
			t.Fatalf("oracle: %v", err)
		}
		return sched.Stats(), res.Trace.Canonical()
	}
	st, tr1 := run()
	var total int64
	for n, c := range st.TasksPerNode {
		if c == 0 {
			t.Errorf("node %d received no tasks", n)
		}
		total += c
	}
	if total != 6*8 {
		t.Errorf("assigned %d tasks, want %d", total, 6*8)
	}
	st2, tr2 := run()
	for i := range st.TasksPerNode {
		if st.TasksPerNode[i] != st2.TasksPerNode[i] {
			t.Errorf("node %d assignment drifted across identical runs: %d vs %d",
				i, st.TasksPerNode[i], st2.TasksPerNode[i])
		}
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("same seed produced different traces")
	}
}

// TestClusterFaultTolerance kills a worker mid-run on a 2-node cluster:
// the distributor must propagate the death into the owning node's local
// worker view so retries land on live workers, and the run must still
// satisfy the fault-mode oracle.
func TestClusterFaultTolerance(t *testing.T) {
	m := cluster(t, 2)
	g := randdag.Build(*graph(m, 5)())
	sched, err := New("multiprio", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the first worker of node 1 (a global ID the node-0 policy
	// never sees) early enough to catch tasks in flight.
	w := m.Cluster.UnitBase[1]
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.KillWorker, Worker: w, At: 1e-4}}}
	res, err := sim.Run(m, g, sched, runtime.WithMemEvents(), runtime.WithFaultPlan(plan))
	if err != nil {
		t.Fatalf("sim.Run with faults: %v", err)
	}
	err = oracle.Check(g, res.Trace, oracle.Options{
		OverflowBytes: res.OverflowBytes,
		Faults: &oracle.FaultCheck{
			MaxRetries: plan.RetryCap(),
			Kills:      res.Faults.AppliedKills,
			Strict:     true,
		},
	})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// TestArchRestrictedPlacement pins the eligibility filter: tasks that
// only run on GPUs must always be owned by a node that has one.
func TestArchRestrictedPlacement(t *testing.T) {
	gpuNode := node(t, "gpun")
	// A GPU-less node sharing the cluster's arch catalog: the catalog
	// lists both architectures, the node just has no unit of the second.
	cpuOnly := &platform.Machine{
		Name:  "cpun",
		Archs: append([]platform.Arch(nil), gpuNode.Archs...),
		Mems:  []platform.MemNode{{Name: "ram"}},
		Units: []platform.Unit{
			{Name: "c0", Arch: platform.ArchCPU, Mem: 0, SpeedFactor: 1},
			{Name: "c1", Arch: platform.ArchCPU, Mem: 0, SpeedFactor: 1},
		},
		LinkMatrix: [][]platform.Link{{{}}},
	}
	if err := cpuOnly.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := platform.NewCluster("hg", []*platform.Machine{cpuOnly, gpuNode}, [][]platform.Link{
		{{}, {BandwidthBytes: 2e9, LatencySec: 2e-5}},
		{{BandwidthBytes: 2e9, LatencySec: 2e-5}, {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := randdag.Build(randdag.Params{Layers: 5, Width: 6, GPUShare: 0.5, Machine: m, Seed: 13})
	sched, err := New("dmdas", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, g, sched, runtime.WithMemEvents())
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, task := range g.Tasks {
		if !task.CanRun(platform.ArchCPU) {
			if nd := m.NodeOfUnit(res.Tasks[task.ID].RanOn); nd != 1 {
				t.Errorf("GPU-only task %d ran on node %d, which has no GPU", task.ID, nd)
			}
		}
	}
}
