package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/dense"
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
	// One graph per (point, tile); at[i] says where workload i's
	// results go.
	var ws []workload
	var at []struct{ point, tile int }
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
					at = append(at, struct{ point, tile int }{len(res.Points) - 1, tile})
					name := fmt.Sprintf("%s %s n=%d tile=%d", pf.name, b.kernel, n, tile)
					ws = append(ws, newWorkload(name, m, func() (*runtime.Graph, error) {
						// Expert priorities are what dmdas consumes;
						// providing them to all schedulers is harmless
						// (only dmdas reads Task.Priority).
						return b.build(dense.Params{Tiles: tiles, TileSize: tile, Machine: m, UserPriorities: true}), nil
					}))
				}
			}
		}
	}
	scheds := SchedulerNames()
	times, err := c.makespans(ws, scheds)
	if err != nil {
		return nil, err
	}
	for i, t := range times {
		// Every graph was built and validated by the runs above, so
		// graph returns it without error.
		g, _ := ws[i/len(scheds)].graph()
		a, sched := at[i/len(scheds)], scheds[i%len(scheds)]
		if gf, pt := gflops(g.TotalFlops(), t), &res.Points[a.point]; gf > pt.GFlops[sched] {
			pt.GFlops[sched] = gf
			pt.BestTile[sched] = a.tile
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
