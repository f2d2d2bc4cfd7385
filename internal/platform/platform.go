// Package platform describes heterogeneous computing nodes: architecture
// types, processing units, memory nodes, and the interconnect between
// memory nodes.
//
// It mirrors the notation of Section III-A of the paper: A is the set of
// architecture types, P the processing units, M the memory nodes, P_m the
// units tied to memory node m, and P_a the units of architecture a.
package platform

import (
	"fmt"
	"strings"
)

// ArchID identifies an architecture type (an element of A).
type ArchID int

// MemID identifies a memory node (an element of M).
type MemID int

// UnitID identifies a processing unit (an element of P).
type UnitID int

// NodeID identifies one node of a Cluster (see cluster.go). Single-node
// machines are node 0 everywhere.
type NodeID int

// Arch describes one architecture type of the node.
type Arch struct {
	Name string
	// PeakGFlops is the peak double-precision rate of ONE processing
	// unit of this architecture, used by application cost models.
	PeakGFlops float64
	// BusyWatts and IdleWatts are the per-unit power draws used by the
	// energy accounting (the paper's Section VII outlook: "extend this
	// to incorporate energy efficiency heuristics"). Zero means no
	// power model.
	BusyWatts float64
	IdleWatts float64
}

// MemNode is a memory node: the main RAM, a GPU-embedded memory, or disk.
type MemNode struct {
	Name string
	// CapacityBytes bounds the data that can reside on the node;
	// 0 means unbounded (main RAM in our experiments).
	CapacityBytes int64
}

// Unit is one processing unit, tied to exactly one memory node and of
// exactly one architecture type.
type Unit struct {
	Name string
	Arch ArchID
	Mem  MemID
	// SpeedFactor scales execution times on this unit relative to the
	// architecture reference (1 = reference). GPU stream workers that
	// share one device use factors > 1 to model device sharing.
	SpeedFactor float64
}

// Link models the interconnect between two memory nodes.
type Link struct {
	// BandwidthBytes is in bytes per second.
	BandwidthBytes float64
	// LatencySec is the fixed per-transfer startup cost in seconds.
	LatencySec float64
}

// Machine is a complete heterogeneous node description — or, when
// Cluster is non-nil, the flattened view of a multi-node cluster whose
// memory nodes and processing units are instance-addressable through
// the cluster topology (see NewCluster).
type Machine struct {
	Name  string
	Archs []Arch
	Mems  []MemNode
	Units []Unit
	// LinkMatrix[i][j] describes transfers from memory node i to j.
	// The diagonal must be the zero Link (no transfer needed).
	LinkMatrix [][]Link
	// Cluster, when non-nil, records the multi-node topology this
	// machine was flattened from. Nil means a plain single node.
	Cluster *ClusterInfo

	unitsByMem  [][]UnitID
	unitsByArch [][]UnitID
	memArch     []ArchID // dominant architecture per memory node
}

// Validate checks structural consistency and precomputes the index maps.
// It must be called once after constructing a Machine by hand; the preset
// constructors call it internally.
func (m *Machine) Validate() error {
	if len(m.Archs) == 0 {
		return fmt.Errorf("platform %q: no architectures", m.Name)
	}
	if len(m.Mems) == 0 {
		return fmt.Errorf("platform %q: no memory nodes", m.Name)
	}
	if len(m.Units) == 0 {
		return fmt.Errorf("platform %q: no processing units", m.Name)
	}
	if len(m.LinkMatrix) != len(m.Mems) {
		return fmt.Errorf("platform %q: link matrix has %d rows, want %d", m.Name, len(m.LinkMatrix), len(m.Mems))
	}
	for i, row := range m.LinkMatrix {
		if len(row) != len(m.Mems) {
			return fmt.Errorf("platform %q: link matrix row %d has %d cols, want %d", m.Name, i, len(row), len(m.Mems))
		}
		for j, l := range row {
			if i == j {
				if l.BandwidthBytes != 0 || l.LatencySec != 0 {
					return fmt.Errorf("platform %q: self-loop link %d->%d must be zero (got bandwidth %v, latency %v)",
						m.Name, i, j, l.BandwidthBytes, l.LatencySec)
				}
				continue
			}
			if l.BandwidthBytes <= 0 {
				return fmt.Errorf("platform %q: link %d->%d has bandwidth %v", m.Name, i, j, l.BandwidthBytes)
			}
			if l.LatencySec < 0 {
				return fmt.Errorf("platform %q: link %d->%d has negative latency %v", m.Name, i, j, l.LatencySec)
			}
		}
	}
	// Names are the user-facing identity of memory nodes and workers in
	// traces and reports; a duplicate silently merges two resources in
	// every rendered view. Unnamed (empty) entries are tolerated for
	// hand-built test machines.
	memNames := make(map[string]int, len(m.Mems))
	for i, mem := range m.Mems {
		if mem.Name == "" {
			continue
		}
		if prev, dup := memNames[mem.Name]; dup {
			return fmt.Errorf("platform %q: duplicate memory node name %q (mems %d and %d)", m.Name, mem.Name, prev, i)
		}
		memNames[mem.Name] = i
	}
	unitNames := make(map[string]int, len(m.Units))
	for i, u := range m.Units {
		if u.Name == "" {
			continue
		}
		if prev, dup := unitNames[u.Name]; dup {
			return fmt.Errorf("platform %q: duplicate worker name %q (units %d and %d)", m.Name, u.Name, prev, i)
		}
		unitNames[u.Name] = i
	}
	if c := m.Cluster; c != nil {
		if len(c.MemHost) != len(m.Mems) || len(c.UnitHost) != len(m.Units) {
			return fmt.Errorf("platform %q: cluster host maps cover %d mems / %d units, want %d / %d",
				m.Name, len(c.MemHost), len(c.UnitHost), len(m.Mems), len(m.Units))
		}
		if len(c.MemBase) != len(c.Nodes) || len(c.UnitBase) != len(c.Nodes) {
			return fmt.Errorf("platform %q: cluster base maps cover %d nodes, want %d", m.Name, len(c.MemBase), len(c.Nodes))
		}
	}
	m.unitsByMem = make([][]UnitID, len(m.Mems))
	m.unitsByArch = make([][]UnitID, len(m.Archs))
	m.memArch = make([]ArchID, len(m.Mems))
	for i := range m.memArch {
		m.memArch[i] = -1
	}
	for u, unit := range m.Units {
		if unit.Arch < 0 || int(unit.Arch) >= len(m.Archs) {
			return fmt.Errorf("platform %q: unit %d has arch %d out of range", m.Name, u, unit.Arch)
		}
		if unit.Mem < 0 || int(unit.Mem) >= len(m.Mems) {
			return fmt.Errorf("platform %q: unit %d has mem %d out of range", m.Name, u, unit.Mem)
		}
		if unit.SpeedFactor <= 0 {
			return fmt.Errorf("platform %q: unit %d has speed factor %v", m.Name, u, unit.SpeedFactor)
		}
		m.unitsByMem[unit.Mem] = append(m.unitsByMem[unit.Mem], UnitID(u))
		m.unitsByArch[unit.Arch] = append(m.unitsByArch[unit.Arch], UnitID(u))
		if m.memArch[unit.Mem] == -1 {
			m.memArch[unit.Mem] = unit.Arch
		} else if m.memArch[unit.Mem] != unit.Arch {
			return fmt.Errorf("platform %q: memory node %d hosts units of different architectures", m.Name, unit.Mem)
		}
	}
	// |M| <= |P| is expected by the paper's model; every memory node
	// must have at least one worker except pure storage nodes, which we
	// do not model here.
	for mem, units := range m.unitsByMem {
		if len(units) == 0 {
			return fmt.Errorf("platform %q: memory node %d has no processing units", m.Name, mem)
		}
	}
	return nil
}

// UnitsOn returns the processing units tied to memory node mem (P_m).
func (m *Machine) UnitsOn(mem MemID) []UnitID { return m.unitsByMem[mem] }

// UnitsOf returns the processing units of architecture a (P_a).
func (m *Machine) UnitsOf(a ArchID) []UnitID { return m.unitsByArch[a] }

// MemArch returns the architecture of the units tied to memory node mem.
// In this model a memory node hosts units of a single architecture, as in
// the paper's PUSH algorithm (get_memory_node_arch_type).
func (m *Machine) MemArch(mem MemID) ArchID { return m.memArch[mem] }

// NumWorkersOf returns |P_a|.
func (m *Machine) NumWorkersOf(a ArchID) int { return len(m.unitsByArch[a]) }

// TransferTime returns the time to move size bytes from memory node src
// to dst, excluding queueing behind other transfers on the same link.
func (m *Machine) TransferTime(src, dst MemID, size int64) float64 {
	if src == dst || size == 0 {
		return 0
	}
	l := m.LinkMatrix[src][dst]
	return l.LatencySec + float64(size)/l.BandwidthBytes
}

// ArchName returns the name of architecture a.
func (m *Machine) ArchName(a ArchID) string { return m.Archs[a].Name }

// String summarizes the machine.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", m.Name)
	for a := range m.Archs {
		fmt.Fprintf(&b, " %d×%s", len(m.unitsByArch[a]), m.Archs[a].Name)
	}
	return b.String()
}

const (
	// GiB is one gibibyte in bytes.
	GiB = int64(1) << 30
	// MiB is one mebibyte in bytes.
	MiB = int64(1) << 20
)

// ArchCPU and ArchGPU are the architecture indices used by all preset
// machines. Application cost models rely on this convention.
const (
	ArchCPU ArchID = 0
	ArchGPU ArchID = 1
)

// MemRAM is the memory node index of the main RAM in all presets.
const MemRAM MemID = 0

// Config tweaks preset construction.
type Config struct {
	// GPUStreams is the number of concurrent streams (workers) per GPU
	// device. StarPU exposes CUDA streams as extra workers sharing the
	// device; k streams split the device throughput k ways while letting
	// transfers overlap compute. Default 1.
	GPUStreams int
}

func (c Config) streams() int {
	if c.GPUStreams <= 0 {
		return 1
	}
	return c.GPUStreams
}

// NewHeteroNode builds a machine with nCPU CPU cores on the RAM node and
// nGPU GPU devices, each with its own memory node. cpuGF and gpuGF are
// per-unit peak GFlop/s; gpuMem is the per-device memory capacity; pcieBW
// is the host<->device bandwidth in bytes/s.
func NewHeteroNode(name string, nCPU int, cpuGF float64, nGPU int, gpuGF float64, gpuMem int64, pcieBW float64, cfg Config) (*Machine, error) {
	streams := cfg.streams()
	// StarPU dedicates one CPU core to driving each GPU device: it leaves
	// the CPU worker pool.
	reserved := nGPU
	workersCPU := nCPU - reserved
	if workersCPU < 1 {
		return nil, fmt.Errorf("platform %q: %d CPU cores minus %d reserved leaves no CPU workers", name, nCPU, reserved)
	}
	m := &Machine{
		Name: name,
		Archs: []Arch{
			// Power: per-core share of the CPU package; per-stream-worker
			// share of the full GPU device (~300 W class accelerators).
			{Name: "cpu", PeakGFlops: cpuGF, BusyWatts: 8, IdleWatts: 1.5},
			{Name: "gpu", PeakGFlops: gpuGF,
				BusyWatts: 300 / float64(streams), IdleWatts: 45 / float64(streams)},
		},
		Mems: []MemNode{{Name: "ram", CapacityBytes: 0}},
	}
	for c := 0; c < workersCPU; c++ {
		m.Units = append(m.Units, Unit{
			Name:        fmt.Sprintf("cpu%d", c),
			Arch:        ArchCPU,
			Mem:         MemRAM,
			SpeedFactor: 1,
		})
	}
	for g := 0; g < nGPU; g++ {
		mem := MemID(len(m.Mems))
		m.Mems = append(m.Mems, MemNode{
			Name:          fmt.Sprintf("gpu%d-mem", g),
			CapacityBytes: gpuMem,
		})
		for s := 0; s < streams; s++ {
			m.Units = append(m.Units, Unit{
				Name: fmt.Sprintf("gpu%d.s%d", g, s),
				Arch: ArchGPU,
				Mem:  mem,
				// Streams share the device: each runs 1/streams
				// of the device throughput.
				SpeedFactor: float64(streams),
			})
		}
	}
	n := len(m.Mems)
	m.LinkMatrix = make([][]Link, n)
	for i := range m.LinkMatrix {
		m.LinkMatrix[i] = make([]Link, n)
		for j := range m.LinkMatrix[i] {
			if i == j {
				continue
			}
			bw := pcieBW
			if i != int(MemRAM) && j != int(MemRAM) {
				// GPU-to-GPU goes through the host (no NVLink
				// modeled): half bandwidth, double latency.
				bw = pcieBW / 2
			}
			m.LinkMatrix[i][j] = Link{BandwidthBytes: bw, LatencySec: 3e-6}
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// IntelV100 models the paper's Intel-V100 platform: 2 × Xeon Gold 6142
// (16 cores each, 2.6 GHz) and 2 × NVIDIA V100 16 GB. Per-core DGEMM
// throughput is ≈35 GFlop/s (AVX-512), V100 DGEMM peak ≈7000 GFlop/s,
// PCIe 3 x16 ≈12 GB/s effective.
func IntelV100(cfg Config) *Machine {
	m, err := NewHeteroNode("Intel-V100", 32, 35, 2, 6200, 16*GiB, 12e9, cfg)
	if err != nil {
		panic(err) // preset parameters are static and valid
	}
	return m
}

// AMDA100 models the paper's AMD-A100 platform: 2 × EPYC 7513 (32 cores
// each, 2.6 GHz) and 2 × NVIDIA A100 40 GB. The paper notes each CPU core
// is about 2× slower than the Intel-V100 cores while the GPUs are much
// faster: per-core ≈17 GFlop/s (AVX2), A100 DGEMM ≈15000 GFlop/s, PCIe 4
// x16 ≈24 GB/s effective.
func AMDA100(cfg Config) *Machine {
	m, err := NewHeteroNode("AMD-A100", 64, 17, 2, 15000, 40*GiB, 24e9, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// SmallSim is the 1 GPU + 6 CPUs configuration used in the paper's Fig. 4
// simulation study of the eviction mechanism. The GPU is calibrated like
// the StarPU-over-SimGrid platform models of that study (an older-
// generation device, far below a V100), which keeps the single GPU
// saturated by update kernels except at the DAG tail — the regime the
// eviction mechanism targets.
func SmallSim(cfg Config) *Machine {
	m, err := NewHeteroNode("SmallSim", 7, 35, 1, 900, 4*GiB, 8e9, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NUMANode builds a CPU-only machine with `sockets` RAM memory nodes of
// `coresPer` cores each, connected by an inter-socket link. The paper's
// model treats the main RAM as one memory node "despite the NUMA
// effects but otherwise the approach remains valid" (Section III-A);
// this preset exists to validate exactly that claim: per-socket heaps,
// task duplication and eviction across NUMA domains.
func NUMANode(sockets, coresPer int, interBW float64) *Machine {
	if sockets < 1 {
		sockets = 1
	}
	if coresPer < 1 {
		coresPer = 1
	}
	if interBW <= 0 {
		interBW = 20e9 // QPI/UPI-class cross-socket bandwidth
	}
	m := &Machine{
		Name:  fmt.Sprintf("numa-%dx%d", sockets, coresPer),
		Archs: []Arch{{Name: "cpu", PeakGFlops: 35, BusyWatts: 8, IdleWatts: 1.5}},
	}
	for s := 0; s < sockets; s++ {
		m.Mems = append(m.Mems, MemNode{Name: fmt.Sprintf("numa%d", s)})
		for c := 0; c < coresPer; c++ {
			m.Units = append(m.Units, Unit{
				Name:        fmt.Sprintf("s%dc%d", s, c),
				Arch:        ArchCPU,
				Mem:         MemID(s),
				SpeedFactor: 1,
			})
		}
	}
	m.LinkMatrix = make([][]Link, sockets)
	for i := range m.LinkMatrix {
		m.LinkMatrix[i] = make([]Link, sockets)
		for j := range m.LinkMatrix[i] {
			if i != j {
				m.LinkMatrix[i][j] = Link{BandwidthBytes: interBW, LatencySec: 5e-7}
			}
		}
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// CPUOnly builds a homogeneous machine with n CPU cores, used by the
// threaded engine examples and tests.
func CPUOnly(n int) *Machine {
	if n < 1 {
		n = 1
	}
	m := &Machine{
		Name:  fmt.Sprintf("cpu-only-%d", n),
		Archs: []Arch{{Name: "cpu", PeakGFlops: 35}},
		Mems:  []MemNode{{Name: "ram"}},
	}
	for c := 0; c < n; c++ {
		m.Units = append(m.Units, Unit{
			Name:        fmt.Sprintf("cpu%d", c),
			Arch:        ArchCPU,
			Mem:         MemRAM,
			SpeedFactor: 1,
		})
	}
	m.LinkMatrix = [][]Link{{{}}}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}
