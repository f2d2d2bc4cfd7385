// Hierarchical: the paper's Section VII outlook — a blocked Cholesky
// whose panels expand into fine CPU-sized subgraphs while trailing
// updates stay coarse GPU-sized — with DAG and trace exports for
// inspection (Graphviz DOT, Chrome trace-event JSON).
//
// Run with: go run ./examples/hierarchical [-blocks 6] [-sub 5] [-tile 512] [-out /tmp]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"multiprio/internal/apps/dense"
	"multiprio/internal/experiments"
	"multiprio/internal/platform"
	"multiprio/internal/sim"
)

func main() {
	blocks := flag.Int("blocks", 6, "outer blocks per dimension")
	sub := flag.Int("sub", 5, "fine tiles per block dimension")
	tile := flag.Int("tile", 512, "fine tile size")
	outDir := flag.String("out", os.TempDir(), "directory for DOT/Chrome exports")
	flag.Parse()

	m := platform.IntelV100(platform.Config{})
	p := dense.HierParams{Blocks: *blocks, SubTiles: *sub, TileSize: *tile, Machine: m}
	order := *blocks * *sub * *tile
	fmt.Printf("hierarchical Cholesky: order %d, %d tasks\n",
		order, dense.HierTaskCount(*blocks, *sub))

	// A run writes nothing of the graph: every scheduler runs this one.
	g := dense.HierarchicalCholesky(p)
	for _, name := range []string{"multiprio", "dmdas", "heteroprio"} {
		s, err := experiments.NewScheduler(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(m, g, s)
		if err != nil {
			log.Fatal(err)
		}
		fine, coarse := 0, 0
		for _, sp := range res.Trace.Spans {
			if sp.Kind == "gemm" || sp.Kind == "syrk" {
				if m.Units[sp.Worker].Arch == platform.ArchGPU {
					coarse++
				} else {
					fine++
				}
			}
		}
		fmt.Printf("  %-12s makespan %8.4fs   updates on gpu/cpu: %d/%d\n",
			name, res.Makespan, coarse, fine)

		if name == "multiprio" {
			dot := filepath.Join(*outDir, "hier.dot")
			f, err := os.Create(dot)
			if err != nil {
				log.Fatal(err)
			}
			if err := g.WriteDOT(f, res.Tasks, 400); err != nil {
				log.Fatal(err)
			}
			f.Close()
			chrome := filepath.Join(*outDir, "hier-trace.json")
			cf, err := os.Create(chrome)
			if err != nil {
				log.Fatal(err)
			}
			if err := res.Trace.WriteChromeTrace(cf); err != nil {
				log.Fatal(err)
			}
			cf.Close()
			fmt.Printf("  exported %s and %s\n", dot, chrome)
		}
	}
}
