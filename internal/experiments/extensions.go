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
	var ws []workload
	for _, pf := range []string{"intel-v100", "amd-a100"} {
		m, err := PlatformByName(pf, 1)
		if err != nil {
			return nil, err
		}
		// No user priorities: the paper's outlook likens the
		// hierarchical scenario to QR_MUMPS, where fine-grained
		// priorities are not user-provided.
		ws = append(ws, newWorkload(pf, m, func() (*runtime.Graph, error) {
			return dense.HierarchicalCholesky(dense.HierParams{
				Blocks: blocks, SubTiles: subTiles, TileSize: tileSize, Machine: m,
			}), nil
		}))
	}
	scheds := SchedulerNames()
	times, err := c.makespans(ws, scheds)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		res.Points = append(res.Points, HierPoint{Platform: w.name, Times: gridRow(times, wi, scheds)})
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
	ws := []workload{
		newWorkload("cholesky", m, func() (*runtime.Graph, error) {
			return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 960, Machine: m, UserPriorities: true}), nil
		}),
		newWorkload("fmm", m, func() (*runtime.Graph, error) {
			return fmm.Build(fmm.Params{Particles: particles, Height: 6, Clustered: true, Machine: m, Seed: 9}), nil
		}),
		newWorkload("sparseqr-"+matrix.Name, m, func() (*runtime.Graph, error) {
			return sparseqr.BuildFromTree(sparseqr.BuildTree(matrix), sparseqr.Params{Machine: m}), nil
		}),
	}
	scheds := SchedulerNames()
	rows, err := grid(c, ws, len(scheds), func(w workload, g *runtime.Graph, col int) (EnergyRow, error) {
		r, err := c.runOne(m, g, scheds[col])
		if err != nil {
			return EnergyRow{}, fmt.Errorf("%s %s: %w", w.name, scheds[col], err)
		}
		e := r.Trace.Energy()
		return EnergyRow{
			Workload: w.name, Scheduler: scheds[col],
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
