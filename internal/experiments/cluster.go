package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/distrib"
	"multiprio/internal/sched/registry"
)

// clusterNodeCounts is the scaling axis of the -exp cluster study.
var clusterNodeCounts = []int{1, 2, 4, 8}

// clusterInners are the per-node policies the distributor shards to.
var clusterInners = []string{"multiprio", "dmdas"}

// ClusterCell is one (workload, inner policy, node count) measurement
// of the cluster scaling study.
type ClusterCell struct {
	Workload string
	Inner    string
	Nodes    int
	Makespan float64
	// Speedup is the 1-node makespan of the same (workload, inner)
	// configuration divided by this cell's makespan.
	Speedup float64
	// InterBytes is the payload that crossed the interconnect (transfers
	// whose source and destination memories live on different nodes).
	InterBytes int64
	// CrossPct is the share of tasks the distributor placed on a node
	// holding none of their predecessors (pure load balancing).
	CrossPct float64
	// OracleOK reports the run passed the execution oracle — for
	// multi-node cells including the inter-node transfer replay.
	OracleOK bool
}

// ClusterResult is the -exp cluster study: the same workloads run on
// 1/2/4/8-node clusters through the two-level distributor, every run
// validated by the execution oracle.
type ClusterResult struct {
	Cells []ClusterCell
}

// clusterWorkloads returns the study's graph builders for machine m.
func clusterWorkloads(m *platform.Machine, scale Scale) []workload {
	dagLayers, dagWidth, tiles := 10, 16, 8
	if scale == Full {
		dagLayers, dagWidth, tiles = 20, 32, 16
	}
	return []workload{
		{"randdag", func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: dagLayers, Width: dagWidth,
				CommuteShare: 0.3, Machine: m, Seed: 17})
		}},
		{"cholesky", func() *runtime.Graph {
			return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 512, Machine: m,
				UserPriorities: true})
		}},
	}
}

// clusterMachine builds the study's n-node cluster: identical
// heterogeneous nodes on a full symmetric interconnect (2 GB/s, 20 µs —
// a commodity-network class far below the intra-node PCIe).
func clusterMachine(n int, scale Scale) (*platform.Machine, error) {
	nCPU, nGPU := 4, 1
	if scale == Full {
		nCPU, nGPU = 8, 2
	}
	return platform.UniformCluster(fmt.Sprintf("cluster-%d", n), n, func(i int) (*platform.Machine, error) {
		return platform.NewHeteroNode(fmt.Sprintf("n%d", i), nCPU, 10, nGPU, 100,
			64*platform.MiB, 5e9, platform.Config{})
	}, 2e9, 2e-5)
}

// RunCluster executes the cluster scaling study: each workload × inner
// policy runs on 1-, 2-, 4- and 8-node clusters through the two-level
// distributor. Every run is validated by the execution oracle; on
// multi-node cells that includes the inter-node transfer replay (a
// value crossing nodes must have traversed an interconnect transfer no
// faster than its link time).
func RunCluster(c *Ctx) (*ClusterResult, error) {
	type job struct {
		w, p, n int
	}
	sample, err := clusterMachine(1, c.Scale)
	if err != nil {
		return nil, err
	}
	numW := len(clusterWorkloads(sample, c.Scale))
	var jobs []job
	for wi := 0; wi < numW; wi++ {
		for pi := range clusterInners {
			for ni := range clusterNodeCounts {
				jobs = append(jobs, job{wi, pi, ni})
			}
		}
	}
	rows, err := sweep(c, len(jobs), func(idx int) (ClusterCell, error) {
		j := jobs[idx]
		nodes := clusterNodeCounts[j.n]
		inner := clusterInners[j.p]
		m, err := clusterMachine(nodes, c.Scale)
		if err != nil {
			return ClusterCell{}, err
		}
		w := clusterWorkloads(m, c.Scale)[j.w]
		sched, err := distrib.New(inner, registry.Options{})
		if err != nil {
			return ClusterCell{}, err
		}
		g := w.build()
		res, err := c.simulate(m, g, sched, runtime.WithMemEvents())
		if err != nil {
			return ClusterCell{}, fmt.Errorf("%s/%s on %d nodes: %w", w.name, inner, nodes, err)
		}
		if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
			return ClusterCell{}, fmt.Errorf("%s/%s on %d nodes: oracle: %w", w.name, inner, nodes, err)
		}
		var inter int64
		for _, x := range res.Trace.Xfers {
			if m.NodeOfMem(x.Src) != m.NodeOfMem(x.Dst) {
				inter += x.Bytes
			}
		}
		st := sched.Stats()
		cell := ClusterCell{
			Workload:   w.name,
			Inner:      inner,
			Nodes:      nodes,
			Makespan:   res.Makespan,
			InterBytes: inter,
			CrossPct:   100 * float64(st.CrossAssignments) / float64(len(g.Tasks)),
			OracleOK:   true,
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	// Speedup against the 1-node cell of the same configuration. The
	// rows are in configuration order; node count varies fastest.
	r := &ClusterResult{Cells: rows}
	for i := range r.Cells {
		base := r.Cells[i-i%len(clusterNodeCounts)]
		if r.Cells[i].Makespan > 0 {
			r.Cells[i].Speedup = base.Makespan / r.Cells[i].Makespan
		}
	}
	return r, nil
}

// Print renders the study as one table per workload.
func (r *ClusterResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Cluster scaling: two-level scheduling (distrib over per-node policies)")
	fmt.Fprintln(w, "(identical nodes on a 2 GB/s interconnect; every run oracle-validated,")
	fmt.Fprintln(w, " multi-node runs including the inter-node transfer replay)")
	last := ""
	for _, c := range r.Cells {
		key := c.Workload + "/" + c.Inner
		if key != last {
			fmt.Fprintf(w, "\n%-10s inner=%s\n", c.Workload, c.Inner)
			rule(w, 64)
			fmt.Fprintf(w, "%5s %12s %8s %14s %7s %7s\n",
				"nodes", "makespan(s)", "speedup", "inter(MiB)", "cross%", "oracle")
			last = key
		}
		ok := "pass"
		if !c.OracleOK {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "%5d %12.4f %7.2fx %14.2f %6.1f%% %7s\n",
			c.Nodes, c.Makespan, c.Speedup,
			float64(c.InterBytes)/float64(platform.MiB), c.CrossPct, ok)
	}
}
