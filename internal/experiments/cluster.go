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
}

// ClusterResult is the -exp cluster study: the same workloads run on
// 1/2/4/8-node clusters through the two-level distributor, every run
// validated by the execution oracle.
type ClusterResult struct {
	Cells []ClusterCell
}

// clusterWorkloads returns the study's workloads on machine m.
func clusterWorkloads(m *platform.Machine, scale Scale) []workload {
	dagLayers, dagWidth, tiles := 10, 16, 8
	if scale == Full {
		dagLayers, dagWidth, tiles = 20, 32, 16
	}
	return []workload{
		newWorkload("randdag", m, func() (*runtime.Graph, error) {
			return randdag.Build(randdag.Params{Layers: dagLayers, Width: dagWidth,
				CommuteShare: 0.3, Machine: m, Seed: 17}), nil
		}),
		newWorkload("cholesky", m, func() (*runtime.Graph, error) {
			return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 512, Machine: m,
				UserPriorities: true}), nil
		}),
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
	// One graph per (node count, workload); the inner policies are the
	// grid's columns.
	var ws []workload
	for _, nodes := range clusterNodeCounts {
		m, err := clusterMachine(nodes, c.Scale)
		if err != nil {
			return nil, err
		}
		ws = append(ws, clusterWorkloads(m, c.Scale)...)
	}
	cells, err := grid(c, ws, len(clusterInners), func(w workload, g *runtime.Graph, col int) (ClusterCell, error) {
		inner, m := clusterInners[col], w.m
		nodes := m.NumNodes()
		sched, err := distrib.New(inner, registry.Options{})
		if err != nil {
			return ClusterCell{}, err
		}
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
		return ClusterCell{
			Workload:   w.name,
			Inner:      inner,
			Nodes:      nodes,
			Makespan:   res.Makespan,
			InterBytes: inter,
			CrossPct:   100 * float64(sched.Stats().CrossAssignments) / float64(len(g.Tasks)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Regroup so each (workload, inner) block lists its node counts in
	// order, and take the speedup against the block's 1-node cell.
	r := &ClusterResult{}
	nw, np := len(ws)/len(clusterNodeCounts), len(clusterInners)
	for wi := 0; wi < nw; wi++ {
		for pi := range clusterInners {
			for ni := range clusterNodeCounts {
				cell := cells[(ni*nw+wi)*np+pi]
				if base := cells[wi*np+pi]; cell.Makespan > 0 {
					cell.Speedup = base.Makespan / cell.Makespan
				}
				r.Cells = append(r.Cells, cell)
			}
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
		fmt.Fprintf(w, "%5d %12.4f %7.2fx %14.2f %6.1f%% %7s\n",
			c.Nodes, c.Makespan, c.Speedup,
			float64(c.InterBytes)/float64(platform.MiB), c.CrossPct, "pass")
	}
}
