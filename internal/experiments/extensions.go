package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/runtime"
)

// HierPoint is one (platform, scheduler) hierarchical-Cholesky run.
type HierPoint struct {
	Platform string
	Times    map[string]float64
}

// HierResult explores the paper's Section VII outlook on hierarchical
// tasks: a blocked Cholesky whose panel operations expand into fine
// CPU-sized subgraphs while trailing updates stay coarse GPU-sized —
// "such scenarios are similar to QR_MUMPS, and that's why we expect
// better results than Dmdas when scheduling hierarchical tasks".
type HierResult struct {
	Blocks, SubTiles, TileSize int
	Points                     []HierPoint
}

// RunHier executes the hierarchical workload under the comparison set.
func RunHier(c *Ctx) (*HierResult, error) {
	blocks, subTiles, tileSize := 6, 5, 512
	if c.Scale == Full {
		blocks, subTiles, tileSize = 10, 6, 512
	}
	res := &HierResult{Blocks: blocks, SubTiles: subTiles, TileSize: tileSize}
	platforms := []string{"intel-v100", "amd-a100"}
	scheds := SchedulerNames()
	times, err := sweep(c, len(platforms)*len(scheds), func(i int) (float64, error) {
		pf, schedName := platforms[i/len(scheds)], scheds[i%len(scheds)]
		m, err := PlatformByName(pf, 1)
		if err != nil {
			return 0, err
		}
		// No user priorities: the paper's outlook likens the
		// hierarchical scenario to QR_MUMPS, where fine-grained
		// priorities are not user-provided.
		g := dense.HierarchicalCholesky(dense.HierParams{
			Blocks: blocks, SubTiles: subTiles, TileSize: tileSize,
			Machine: m,
		})
		r, err := c.runOne(m, g, schedName)
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", pf, schedName, err)
		}
		return r.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pf := range platforms {
		pt := HierPoint{Platform: pf, Times: make(map[string]float64)}
		for si, schedName := range scheds {
			pt.Times[schedName] = times[pi*len(scheds)+si]
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Print renders the hierarchical comparison.
func (r *HierResult) Print(w io.Writer) {
	order := r.Blocks * r.SubTiles * r.TileSize
	fmt.Fprintf(w, "Hierarchical Cholesky (paper §VII outlook): order %d = %d blocks × %d×%d tiles of %d\n",
		order, r.Blocks, r.SubTiles, r.SubTiles, r.TileSize)
	fmt.Fprintf(w, "%-12s | %11s %11s %11s | multiprio vs dmdas\n", "platform", "multiprio", "dmdas", "heteroprio")
	rule(w, 76)
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-12s | %10.4fs %10.4fs %10.4fs | %+6.1f%%\n",
			p.Platform, p.Times["multiprio"], p.Times["dmdas"], p.Times["heteroprio"],
			pct(p.Times["dmdas"], p.Times["multiprio"])) // positive = multiprio faster
	}
	fmt.Fprintln(w, "paper conjecture: MultiPrio ahead of Dmdas on hierarchical-granularity DAGs")
}

// EnergyRow is one (workload, scheduler) energy measurement.
type EnergyRow struct {
	Workload  string
	Scheduler string
	Makespan  float64
	Joules    float64
	EDP       float64
}

// EnergyResult explores the paper's Section VII energy outlook with the
// platform power model: per-scheduler energy and energy-delay product
// on the three application classes.
type EnergyResult struct {
	Rows []EnergyRow
}

// RunEnergy measures makespan, energy and EDP per scheduler.
func RunEnergy(c *Ctx) (*EnergyResult, error) {
	m, err := PlatformByName("intel-v100", 1)
	if err != nil {
		return nil, err
	}
	tiles := 20
	particles := 300_000
	matrix := sparseqr.Matrices[2]
	if c.Scale == Full {
		tiles = 32
		particles = 1_000_000
		matrix = sparseqr.Matrices[5]
	}
	sparseTree := sparseqr.BuildTree(matrix)
	workloads := []workload{
		{"cholesky", func() *runtime.Graph {
			return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 960, Machine: m, UserPriorities: true})
		}},
		{"fmm", func() *runtime.Graph {
			return fmm.Build(fmm.Params{Particles: particles, Height: 6, Clustered: true, Machine: m, Seed: 9})
		}},
		{"sparseqr-" + matrix.Name, func() *runtime.Graph {
			return sparseqr.BuildFromTree(sparseTree, sparseqr.Params{Machine: m})
		}},
	}
	scheds := SchedulerNames()
	rows, err := sweep(c, len(workloads)*len(scheds), func(i int) (EnergyRow, error) {
		wl, schedName := workloads[i/len(scheds)], scheds[i%len(scheds)]
		r, err := c.runOne(m, wl.build(), schedName)
		if err != nil {
			return EnergyRow{}, fmt.Errorf("%s %s: %w", wl.name, schedName, err)
		}
		e := r.Trace.Energy()
		return EnergyRow{
			Workload: wl.name, Scheduler: schedName,
			Makespan: r.Makespan, Joules: e.Total, EDP: e.EDP(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &EnergyResult{Rows: rows}, nil
}

// Print renders the energy table.
func (r *EnergyResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Energy exploration (paper §VII outlook), Intel-V100 power model")
	fmt.Fprintf(w, "%-22s %-12s %10s %10s %12s\n", "workload", "scheduler", "makespan", "energy", "EDP")
	rule(w, 72)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-22s %-12s %9.3fs %8.1fJ %10.2fJs\n",
			row.Workload, row.Scheduler, row.Makespan, row.Joules, row.EDP)
	}
}
