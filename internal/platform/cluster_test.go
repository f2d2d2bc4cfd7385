package platform

import (
	"strings"
	"testing"
)

func testNode(t *testing.T, name string) *Machine {
	t.Helper()
	m, err := NewHeteroNode(name, 4, 35, 1, 900, 2*GiB, 10e9, Config{})
	if err != nil {
		t.Fatalf("NewHeteroNode(%s): %v", name, err)
	}
	return m
}

func fullInter(n int, bw, lat float64) [][]Link {
	inter := make([][]Link, n)
	for i := range inter {
		inter[i] = make([]Link, n)
		for j := range inter[i] {
			if i != j {
				inter[i][j] = Link{BandwidthBytes: bw, LatencySec: lat}
			}
		}
	}
	return inter
}

func TestNewClusterRejectsBadInput(t *testing.T) {
	good := func() []*Machine {
		return []*Machine{testNode(t, "a"), testNode(t, "b")}
	}
	cases := []struct {
		name  string
		nodes func() []*Machine
		inter func() [][]Link
		want  string
	}{
		{
			name:  "empty cluster",
			nodes: func() []*Machine { return nil },
			inter: func() [][]Link { return nil },
			want:  "no nodes",
		},
		{
			name:  "nil node",
			nodes: func() []*Machine { return []*Machine{testNode(t, "a"), nil} },
			inter: func() [][]Link { return fullInter(2, 1e9, 0) },
			want:  "is nil",
		},
		{
			name:  "duplicate node names",
			nodes: func() []*Machine { return []*Machine{testNode(t, "a"), testNode(t, "a")} },
			inter: func() [][]Link { return fullInter(2, 1e9, 0) },
			want:  "duplicate node name",
		},
		{
			name: "nested cluster",
			nodes: func() []*Machine {
				inner, err := NewCluster("inner", []*Machine{testNode(t, "a")}, fullInter(1, 0, 0))
				if err != nil {
					t.Fatalf("inner cluster: %v", err)
				}
				return []*Machine{inner, testNode(t, "b")}
			},
			inter: func() [][]Link { return fullInter(2, 1e9, 0) },
			want:  "itself a cluster",
		},
		{
			name:  "wrong interconnect shape",
			nodes: good,
			inter: func() [][]Link { return fullInter(3, 1e9, 0) },
			want:  "interconnect has",
		},
		{
			name:  "ragged interconnect row",
			nodes: good,
			inter: func() [][]Link { return [][]Link{fullInter(2, 1e9, 0)[0], nil} },
			want:  "row 1",
		},
		{
			name:  "zero-bandwidth interconnect",
			nodes: good,
			inter: func() [][]Link { return fullInter(2, 0, 0) },
			want:  "has bandwidth",
		},
		{
			name:  "negative interconnect latency",
			nodes: good,
			inter: func() [][]Link { return fullInter(2, 1e9, -1) },
			want:  "negative latency",
		},
		{
			name:  "nonzero self-loop interconnect",
			nodes: good,
			inter: func() [][]Link {
				inter := fullInter(2, 1e9, 0)
				inter[1][1] = Link{BandwidthBytes: 1}
				return inter
			},
			want: "self-loop",
		},
		{
			name: "mismatched arch catalogs",
			nodes: func() []*Machine {
				a := testNode(t, "a")
				b := testNode(t, "b")
				b.Archs[1].PeakGFlops *= 2
				return []*Machine{a, b}
			},
			inter: func() [][]Link { return fullInter(2, 1e9, 0) },
			want:  "architecture catalog",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCluster("c", tc.nodes(), tc.inter())
			if err == nil {
				t.Fatal("NewCluster accepted invalid input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestClusterN1Passthrough pins the N=1 equivalence at the platform
// layer: a 1-node cluster is the node itself (same name, memories,
// units, links), only annotated with topology maps. The trace-level
// byte-identity goldens build on exactly this.
func TestClusterN1Passthrough(t *testing.T) {
	node := testNode(t, "solo")
	c, err := NewCluster("wrapped", []*Machine{node}, fullInter(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != node.Name {
		t.Errorf("1-node cluster renamed the machine: %q, want %q", c.Name, node.Name)
	}
	if len(c.Mems) != len(node.Mems) || len(c.Units) != len(node.Units) {
		t.Fatalf("1-node cluster reshaped the machine: %d mems / %d units, want %d / %d",
			len(c.Mems), len(c.Units), len(node.Mems), len(node.Units))
	}
	for i := range c.Mems {
		if c.Mems[i] != node.Mems[i] {
			t.Errorf("mem %d changed: %+v != %+v", i, c.Mems[i], node.Mems[i])
		}
	}
	for i := range c.Units {
		if c.Units[i] != node.Units[i] {
			t.Errorf("unit %d changed: %+v != %+v", i, c.Units[i], node.Units[i])
		}
	}
	if c.NumNodes() != 1 || c.Cluster == nil {
		t.Error("1-node cluster should still carry its topology")
	}
	if node.Cluster != nil {
		t.Error("NewCluster mutated the node machine")
	}
	if n, lm := c.LocalMem(1); n != 0 || lm != 1 {
		t.Errorf("LocalMem(1) = (%d, %d), want (0, 1)", n, lm)
	}
}

func TestClusterFlattening(t *testing.T) {
	nodes := []*Machine{testNode(t, "n0"), testNode(t, "n1"), testNode(t, "n2")}
	perMems, perUnits := len(nodes[0].Mems), len(nodes[0].Units)
	c, err := NewCluster("c3", nodes, fullInter(3, 1e9, 1e-5))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumNodes(); got != 3 {
		t.Fatalf("NumNodes = %d, want 3", got)
	}
	if len(c.Mems) != 3*perMems || len(c.Units) != 3*perUnits {
		t.Fatalf("flattened to %d mems / %d units, want %d / %d",
			len(c.Mems), len(c.Units), 3*perMems, 3*perUnits)
	}
	for u := range c.Units {
		n := c.NodeOfUnit(UnitID(u))
		if want := NodeID(u / perUnits); n != want {
			t.Errorf("unit %d hosted on node %d, want %d", u, n, want)
		}
		if mn := c.NodeOfMem(c.Units[u].Mem); mn != n {
			t.Errorf("unit %d on node %d is tied to mem of node %d", u, n, mn)
		}
		if !strings.HasPrefix(c.Units[u].Name, nodes[n].Name+"/") {
			t.Errorf("unit %d name %q lacks the %q node prefix", u, c.Units[u].Name, nodes[n].Name)
		}
	}
	// Round-trip of the global/local translation.
	for u := range c.Units {
		n, lu := c.LocalUnit(UnitID(u))
		if back := c.Cluster.UnitBase[n] + lu; back != UnitID(u) {
			t.Errorf("unit %d round-trips to %d via node %d local %d", u, back, n, lu)
		}
	}
	for m := range c.Mems {
		n, lm := c.LocalMem(MemID(m))
		if back := c.Cluster.MemBase[n] + lm; back != MemID(m) {
			t.Errorf("mem %d round-trips to %d via node %d local %d", m, back, n, lm)
		}
	}
	// Intra-node links are the node's own; RAM-to-RAM across nodes is
	// exactly the interconnect.
	if c.LinkMatrix[0][1] != nodes[0].LinkMatrix[0][1] {
		t.Error("intra-node link was not preserved")
	}
	ram1 := c.Cluster.MemBase[1]
	if got := c.LinkMatrix[0][ram1]; got != (Link{BandwidthBytes: 1e9, LatencySec: 1e-5}) {
		t.Errorf("RAM->RAM inter-node link = %+v", got)
	}
	// GPU mem on node 0 to GPU mem on node 1 routes through both
	// gateways: latencies add, the slowest leg bounds bandwidth.
	gpu0, gpu1 := MemID(1), c.Cluster.MemBase[1]+1
	l := c.LinkMatrix[gpu0][gpu1]
	wantLat := nodes[0].LinkMatrix[1][0].LatencySec + 1e-5 + nodes[1].LinkMatrix[0][1].LatencySec
	if diff := l.LatencySec - wantLat; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("composite latency %v, want %v", l.LatencySec, wantLat)
	}
	if l.BandwidthBytes != 1e9 {
		t.Errorf("composite bandwidth %v, want the 1e9 interconnect bottleneck", l.BandwidthBytes)
	}
	if ct := c.TransferTime(gpu0, gpu1, 1<<20); ct <= c.TransferTime(gpu0, MemRAM, 1<<20) {
		t.Errorf("cross-node transfer (%v) should cost more than the local leg (%v)",
			ct, c.TransferTime(gpu0, MemRAM, 1<<20))
	}
}

func TestUniformCluster(t *testing.T) {
	c, err := UniformCluster("u4", 4, func(i int) (*Machine, error) {
		return NewHeteroNode(nodeName(i), 3, 35, 1, 900, GiB, 10e9, Config{})
	}, 2e9, 5e-6)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", c.NumNodes())
	}
	if _, err := UniformCluster("u0", 0, nil, 1, 0); err == nil {
		t.Error("UniformCluster accepted 0 nodes")
	}
}

func nodeName(i int) string { return "node" + string(rune('0'+i)) }
