package platform

import (
	"fmt"
)

// ClusterInfo records the multi-node topology a flattened cluster
// Machine was built from: which node owns each (global) memory node and
// processing unit, and where each node's ID ranges begin. The two-level
// scheduler (internal/sched/distrib) and the execution oracle's
// inter-node transfer replay address nodes through it.
type ClusterInfo struct {
	Name string
	// Nodes are the original per-node machines, untouched: their memory
	// and unit IDs are node-local (each node sees itself as a complete
	// single-node Machine, which is exactly what a per-node scheduler
	// instance is handed).
	Nodes []*Machine
	// Inter[i][j] is the interconnect link from node i to node j. The
	// diagonal is zero.
	Inter [][]Link
	// MemBase[n] / UnitBase[n] are the global IDs of node n's memory
	// node 0 / unit 0 in the flattened machine.
	MemBase  []MemID
	UnitBase []UnitID
	// MemHost[m] / UnitHost[u] give the owning node of each global
	// memory node / unit.
	MemHost  []NodeID
	UnitHost []NodeID
}

// NumNodes returns the number of cluster nodes this machine spans;
// plain single-node machines report 1.
func (m *Machine) NumNodes() int {
	if m.Cluster == nil {
		return 1
	}
	return len(m.Cluster.Nodes)
}

// NodeOfMem returns the cluster node owning (global) memory node mem.
func (m *Machine) NodeOfMem(mem MemID) NodeID {
	if m.Cluster == nil {
		return 0
	}
	return m.Cluster.MemHost[mem]
}

// NodeOfUnit returns the cluster node owning (global) unit u.
func (m *Machine) NodeOfUnit(u UnitID) NodeID {
	if m.Cluster == nil {
		return 0
	}
	return m.Cluster.UnitHost[u]
}

// LocalMem translates a global memory node ID into (node, node-local ID).
func (m *Machine) LocalMem(mem MemID) (NodeID, MemID) {
	if m.Cluster == nil {
		return 0, mem
	}
	n := m.Cluster.MemHost[mem]
	return n, mem - m.Cluster.MemBase[n]
}

// LocalUnit translates a global unit ID into (node, node-local ID).
func (m *Machine) LocalUnit(u UnitID) (NodeID, UnitID) {
	if m.Cluster == nil {
		return 0, u
	}
	n := m.Cluster.UnitHost[u]
	return n, u - m.Cluster.UnitBase[n]
}

// NewCluster joins N already-validated node machines into one flattened
// cluster Machine connected by the inter[i][j] interconnect links
// (bandwidth/latency per directed node pair, FIFO contention exactly
// like the intra-node links — the simulator's link model applies
// unchanged).
//
// The flattened machine is instance-addressable: every memory node and
// unit of every cluster node gets a global ID, names are prefixed with
// the owning node's name, and Cluster records the topology. Inter-node
// transfers route through each node's gateway memory (its node-local
// memory node 0, the RAM by the MemRAM convention): the composite link
// from memory a on node i to memory b on node j adds the latencies of
// the a→gateway leg, the interconnect, and the gateway→b leg, and runs
// at the minimum bandwidth of those legs.
//
// A 1-node cluster is the node itself: the returned machine has the
// node's exact name, IDs, links and units (byte-identical traces — the
// N=1 equivalence property the conformance goldens pin), plus a
// ClusterInfo so node-addressing helpers still work.
//
// All nodes must share one architecture catalog (identical Archs
// slices): application cost models are written against per-arch peak
// rates, and per-node speed differences are expressed through
// Unit.SpeedFactor, never by forking the catalog.
func NewCluster(name string, nodes []*Machine, inter [][]Link) (*Machine, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("platform: cluster %q has no nodes", name)
	}
	names := make(map[string]int, len(nodes))
	for i, nd := range nodes {
		if nd == nil {
			return nil, fmt.Errorf("platform: cluster %q: node %d is nil", name, i)
		}
		if nd.Cluster != nil {
			return nil, fmt.Errorf("platform: cluster %q: node %d (%s) is itself a cluster", name, i, nd.Name)
		}
		if err := nd.Validate(); err != nil {
			return nil, fmt.Errorf("platform: cluster %q: node %d: %w", name, i, err)
		}
		if prev, dup := names[nd.Name]; dup {
			return nil, fmt.Errorf("platform: cluster %q: duplicate node name %q (nodes %d and %d)", name, nd.Name, prev, i)
		}
		names[nd.Name] = i
	}
	if len(inter) != len(nodes) {
		return nil, fmt.Errorf("platform: cluster %q: interconnect has %d rows, want %d", name, len(inter), len(nodes))
	}
	for i, row := range inter {
		if len(row) != len(nodes) {
			return nil, fmt.Errorf("platform: cluster %q: interconnect row %d has %d cols, want %d", name, i, len(row), len(nodes))
		}
		for j, l := range row {
			if i == j {
				if l.BandwidthBytes != 0 || l.LatencySec != 0 {
					return nil, fmt.Errorf("platform: cluster %q: self-loop interconnect link %d->%d must be zero", name, i, j)
				}
				continue
			}
			if l.BandwidthBytes <= 0 {
				return nil, fmt.Errorf("platform: cluster %q: interconnect link %d->%d has bandwidth %v", name, i, j, l.BandwidthBytes)
			}
			if l.LatencySec < 0 {
				return nil, fmt.Errorf("platform: cluster %q: interconnect link %d->%d has negative latency %v", name, i, j, l.LatencySec)
			}
		}
	}
	for i, nd := range nodes[1:] {
		if !sameArchs(nodes[0].Archs, nd.Archs) {
			return nil, fmt.Errorf("platform: cluster %q: node %d (%s) has a different architecture catalog than node 0 (%s); express per-node speeds through Unit.SpeedFactor",
				name, i+1, nd.Name, nodes[0].Name)
		}
	}

	info := &ClusterInfo{Name: name, Nodes: nodes, Inter: inter}
	if len(nodes) == 1 {
		// N=1 equivalence: the cluster IS the node. A shallow copy keeps
		// the node machine untouched while attaching the topology maps.
		flat := *nodes[0]
		info.MemBase = []MemID{0}
		info.UnitBase = []UnitID{0}
		info.MemHost = make([]NodeID, len(flat.Mems))
		info.UnitHost = make([]NodeID, len(flat.Units))
		flat.Cluster = info
		return &flat, nil
	}

	flat := &Machine{
		Name:    name,
		Archs:   append([]Arch(nil), nodes[0].Archs...),
		Cluster: info,
	}
	for n, nd := range nodes {
		info.MemBase = append(info.MemBase, MemID(len(flat.Mems)))
		info.UnitBase = append(info.UnitBase, UnitID(len(flat.Units)))
		for _, mem := range nd.Mems {
			mem.Name = nd.Name + "/" + mem.Name
			flat.Mems = append(flat.Mems, mem)
			info.MemHost = append(info.MemHost, NodeID(n))
		}
		for _, u := range nd.Units {
			u.Name = nd.Name + "/" + u.Name
			u.Mem += info.MemBase[n]
			flat.Units = append(flat.Units, u)
			info.UnitHost = append(info.UnitHost, NodeID(n))
		}
	}
	total := len(flat.Mems)
	flat.LinkMatrix = make([][]Link, total)
	for i := range flat.LinkMatrix {
		flat.LinkMatrix[i] = make([]Link, total)
		ni, li := info.MemHost[i], MemID(i)-info.MemBase[info.MemHost[i]]
		for j := range flat.LinkMatrix[i] {
			if i == j {
				continue
			}
			nj, lj := info.MemHost[j], MemID(j)-info.MemBase[info.MemHost[j]]
			if ni == nj {
				flat.LinkMatrix[i][j] = nodes[ni].LinkMatrix[li][lj]
				continue
			}
			flat.LinkMatrix[i][j] = compositeLink(nodes[ni], li, nodes[nj], lj, inter[ni][nj])
		}
	}
	if err := flat.Validate(); err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", name, err)
	}
	return flat, nil
}

// compositeLink models a transfer from memory li on node src to memory
// lj on node dst: source memory to the source gateway (node-local mem
// 0), across the interconnect, gateway to destination memory. Latencies
// add; the slowest leg bounds the bandwidth.
func compositeLink(src *Machine, li MemID, dst *Machine, lj MemID, inter Link) Link {
	out := inter
	if li != 0 {
		leg := src.LinkMatrix[li][0]
		out.LatencySec += leg.LatencySec
		if leg.BandwidthBytes < out.BandwidthBytes {
			out.BandwidthBytes = leg.BandwidthBytes
		}
	}
	if lj != 0 {
		leg := dst.LinkMatrix[0][lj]
		out.LatencySec += leg.LatencySec
		if leg.BandwidthBytes < out.BandwidthBytes {
			out.BandwidthBytes = leg.BandwidthBytes
		}
	}
	return out
}

// sameArchs reports whether two architecture catalogs are identical.
func sameArchs(a, b []Arch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// UniformCluster builds an n-node cluster of identical nodes produced
// by mk (called once per node with the node index; implementations must
// give each node a distinct name) joined by a full symmetric
// interconnect of the given bandwidth (bytes/s) and latency (seconds).
func UniformCluster(name string, n int, mk func(i int) (*Machine, error), bw, lat float64) (*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("platform: cluster %q: %d nodes", name, n)
	}
	nodes := make([]*Machine, n)
	for i := range nodes {
		nd, err := mk(i)
		if err != nil {
			return nil, fmt.Errorf("platform: cluster %q: node %d: %w", name, i, err)
		}
		nodes[i] = nd
	}
	inter := make([][]Link, n)
	for i := range inter {
		inter[i] = make([]Link, n)
		for j := range inter[i] {
			if i != j {
				inter[i][j] = Link{BandwidthBytes: bw, LatencySec: lat}
			}
		}
	}
	return NewCluster(name, nodes, inter)
}
