package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/dense"
	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Fig4Variant is one of the two compared configurations.
type Fig4Variant struct {
	Name        string
	Makespan    float64
	GPUIdlePct  float64
	CPUIdlePct  float64
	Evictions   int64
	Gantt       string
	CriticalLen int
}

// Fig4Result reproduces the paper's Fig. 4: simulated scheduling traces
// of a Cholesky factorization (tile 960, 20×20 tiles) on 1 GPU + 6
// CPUs, with and without MultiPrio's eviction mechanism. The paper
// reports GPU idle dropping from 29% to 1% with eviction on.
type Fig4Result struct {
	With    Fig4Variant
	Without Fig4Variant
}

// RunFig4 executes both configurations.
func RunFig4(c *Ctx) (*Fig4Result, error) {
	m := platform.SmallSim(platform.Config{})
	tiles := 20
	if c.Scale == Quick {
		tiles = 14
	}
	p := dense.Params{Tiles: tiles, TileSize: 960, Machine: m}

	run := func(disableEviction bool, name string) (Fig4Variant, error) {
		cfg := core.Defaults()
		cfg.DisableEviction = disableEviction
		sched := core.New(cfg)
		g := dense.Cholesky(p)
		res, err := c.simulate(m, g, sched)
		if err != nil {
			return Fig4Variant{}, err
		}
		v := Fig4Variant{
			Name:        name,
			Makespan:    res.Makespan,
			GPUIdlePct:  res.Trace.ArchIdlePercent(platform.ArchGPU),
			CPUIdlePct:  res.Trace.ArchIdlePercent(platform.ArchCPU),
			Evictions:   sched.Evictions,
			CriticalLen: len(runtime.PracticalCriticalPath(g, res.Tasks)),
		}
		if c.Gantt {
			v.Gantt = res.Trace.Gantt(100)
		}
		return v, nil
	}

	var r Fig4Result
	var err error
	if r.Without, err = run(true, "MultiPrio without eviction"); err != nil {
		return nil, err
	}
	if r.With, err = run(false, "MultiPrio with eviction"); err != nil {
		return nil, err
	}
	return &r, nil
}

// Print renders both traces' headline numbers (and the ASCII Gantt when
// collected).
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 4: eviction mechanism on Cholesky 960-tile, 1 GPU + 6 CPUs")
	rule(w, 78)
	for _, v := range []Fig4Variant{r.Without, r.With} {
		fmt.Fprintf(w, "%-28s makespan %8.4fs  GPU idle %5.1f%%  CPU idle %5.1f%%  evictions %d\n",
			v.Name, v.Makespan, v.GPUIdlePct, v.CPUIdlePct, v.Evictions)
		if v.Gantt != "" {
			fmt.Fprintln(w, v.Gantt)
		}
	}
	fmt.Fprintf(w, "paper: GPU idle 29%% -> 1%% with the eviction mechanism enabled\n")
}
