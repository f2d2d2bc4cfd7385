// Cholesky: a tiled dense factorization on a simulated heterogeneous
// node (the paper's Intel-V100 model), comparing every scheduling
// policy and dumping a Gantt chart of the best run.
//
// Run with: go run ./examples/cholesky [-tiles 20] [-tile 960]
package main

import (
	"flag"
	"fmt"
	"log"

	"multiprio/internal/apps/dense"
	"multiprio/internal/experiments"
	"multiprio/internal/platform"
	"multiprio/internal/sim"
	"multiprio/internal/trace"
)

func main() {
	tiles := flag.Int("tiles", 20, "tile count per dimension")
	tile := flag.Int("tile", 960, "tile size")
	flag.Parse()

	m := platform.IntelV100(platform.Config{})
	fmt.Printf("Cholesky %d×%d tiles of %d on %s\n\n", *tiles, *tiles, *tile, m)

	type result struct {
		name     string
		makespan float64
		tr       *trace.Trace
	}
	var best *result
	fmt.Printf("%-12s %10s %9s %9s %9s\n", "scheduler", "GFlop/s", "makespan", "cpu idle", "gpu idle")
	// A run writes nothing of the graph: every scheduler runs this one.
	g := dense.Cholesky(dense.Params{Tiles: *tiles, TileSize: *tile, Machine: m, UserPriorities: true})
	for _, name := range []string{"multiprio", "dmdas", "heteroprio", "lws", "eager"} {
		s, err := experiments.NewScheduler(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(m, g, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10.0f %8.3fs %8.1f%% %8.1f%%\n",
			name, g.TotalFlops()/res.Makespan/1e9, res.Makespan,
			res.Trace.ArchIdlePercent(platform.ArchCPU),
			res.Trace.ArchIdlePercent(platform.ArchGPU))
		if best == nil || res.Makespan < best.makespan {
			best = &result{name: name, makespan: res.Makespan, tr: res.Trace}
		}
	}

	fmt.Printf("\nGantt of the best run (%s):\n", best.name)
	fmt.Print(best.tr.Gantt(100))
}
