package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/dense"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Fig5Point is one (kernel, platform, matrix size) measurement: the
// best-performing tile size per scheduler, as the paper selects "the
// best performing configuration to get a fair view".
type Fig5Point struct {
	Kernel   string
	Platform string
	N        int // matrix order
	// PerSched maps scheduler -> best GFlop/s (over tile sizes) and
	// the tile that achieved it.
	GFlops   map[string]float64
	BestTile map[string]int
	// GainPct is MultiPrio's gain over Dmdas (the paper's headline
	// metric for this figure).
	GainPct float64
}

// Fig5Result reproduces the paper's Fig. 5: dense potrf/getrf/geqrf
// across matrix sizes on both platforms, MultiPrio gains/losses over
// Dmdas (which receives CHAMELEON-style expert priorities).
type Fig5Result struct {
	Points []Fig5Point
	// MaxTiles caps the tile count per dimension (documented coverage
	// bound: configurations needing more tiles are skipped).
	MaxTiles int
}

type fig5Platform struct {
	name  string
	tiles []int
	sizes []int
}

func fig5Config(scale Scale) []fig5Platform {
	if scale == Quick {
		return []fig5Platform{
			{name: "intel-v100", tiles: []int{640, 1280, 2560}, sizes: []int{16000, 32000}},
			{name: "amd-a100", tiles: []int{960, 1920, 3840}, sizes: []int{24000, 48000}},
		}
	}
	return []fig5Platform{
		{name: "intel-v100", tiles: []int{640, 1280, 2560}, sizes: []int{16000, 32000, 48000, 64000, 96000, 115200}},
		{name: "amd-a100", tiles: []int{960, 1920, 3840}, sizes: []int{24000, 48000, 72000, 96000, 120000}},
	}
}

// RunFig5 sweeps kernels × platforms × sizes × tiles × schedulers. The
// grid is enumerated up front and executed on the sweep worker pool;
// the reduction to best-tile points runs serially in configuration
// order, so the rendered table does not depend on the pool size.
func RunFig5(c *Ctx) (*Fig5Result, error) {
	maxTiles := 40
	if c.Scale == Full {
		maxTiles = 56
	}
	res := &Fig5Result{MaxTiles: maxTiles}
	builders := []struct {
		kernel string
		build  func(dense.Params) *runtime.Graph
	}{
		{"potrf", dense.Cholesky},
		{"getrf", dense.LU},
		{"geqrf", dense.QR},
	}
	type job struct {
		point       int // index into res.Points
		platform    string
		m           *platform.Machine
		kernel      string
		build       func(dense.Params) *runtime.Graph
		n           int
		tile, tiles int
		sched       string
	}
	var jobs []job
	for _, pf := range fig5Config(c.Scale) {
		m, err := PlatformByName(pf.name, 1)
		if err != nil {
			return nil, err
		}
		for _, b := range builders {
			for _, n := range pf.sizes {
				res.Points = append(res.Points, Fig5Point{
					Kernel: b.kernel, Platform: pf.name, N: n,
					GFlops:   make(map[string]float64),
					BestTile: make(map[string]int),
				})
				for _, tile := range pf.tiles {
					tiles := n / tile
					if tiles < 4 || tiles > maxTiles {
						continue
					}
					for _, schedName := range SchedulerNames() {
						jobs = append(jobs, job{
							point: len(res.Points) - 1, platform: pf.name, m: m,
							kernel: b.kernel, build: b.build, n: n,
							tile: tile, tiles: tiles, sched: schedName,
						})
					}
				}
			}
		}
	}
	gfs, err := sweep(c, len(jobs), func(i int) (float64, error) {
		j := jobs[i]
		p := dense.Params{
			Tiles: j.tiles, TileSize: j.tile, Machine: j.m,
			// Expert priorities are what dmdas consumes; providing them
			// to all schedulers is harmless (only dmdas reads
			// Task.Priority).
			UserPriorities: true,
		}
		g := j.build(p)
		r, err := c.runOne(j.m, g, j.sched)
		if err != nil {
			return 0, fmt.Errorf("%s %s n=%d tile=%d %s: %w",
				j.platform, j.kernel, j.n, j.tile, j.sched, err)
		}
		return gflops(g.TotalFlops(), r.Makespan), nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		pt := &res.Points[j.point]
		if gfs[i] > pt.GFlops[j.sched] {
			pt.GFlops[j.sched] = gfs[i]
			pt.BestTile[j.sched] = j.tile
		}
	}
	for i := range res.Points {
		pt := &res.Points[i]
		if pt.GFlops["dmdas"] > 0 {
			pt.GainPct = pct(pt.GFlops["multiprio"], pt.GFlops["dmdas"])
		}
	}
	return res, nil
}

// Print renders the figure as a table of GFlop/s and MultiPrio-vs-Dmdas
// gains.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 5: dense kernels, best tile per scheduler, MultiPrio gain over Dmdas")
	fmt.Fprintf(w, "(configurations needing more than %d tiles per dimension are skipped)\n", r.MaxTiles)
	header := fmt.Sprintf("%-10s %-10s %8s | %12s %12s %12s | %8s",
		"platform", "kernel", "N", "multiprio", "dmdas", "heteroprio", "gain%%")
	fmt.Fprintf(w, header+"\n")
	rule(w, 90)
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %-10s %8d | %9.0f(%4d) %9.0f(%4d) %9.0f(%4d) | %+7.1f%%\n",
			p.Platform, p.Kernel, p.N,
			p.GFlops["multiprio"], p.BestTile["multiprio"],
			p.GFlops["dmdas"], p.BestTile["dmdas"],
			p.GFlops["heteroprio"], p.BestTile["heteroprio"],
			p.GainPct)
	}
}
