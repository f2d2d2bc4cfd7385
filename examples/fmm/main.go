// FMM: the task-based Fast Multipole Method workload (TBFMM-style group
// tree) on both of the paper's platform models, showing why the
// disconnected DAG rewards MultiPrio's per-task affinity scores.
//
// Run with: go run ./examples/fmm [-particles 500000] [-height 6] [-uniform]
package main

import (
	"flag"
	"fmt"
	"log"

	"multiprio/internal/apps/fmm"
	"multiprio/internal/experiments"
	"multiprio/internal/platform"
	"multiprio/internal/sim"
)

func main() {
	particles := flag.Int("particles", 500_000, "particle count")
	height := flag.Int("height", 6, "octree height")
	uniform := flag.Bool("uniform", false, "uniform instead of clustered particle distribution")
	flag.Parse()

	for _, pf := range []string{"intel-v100", "amd-a100"} {
		m, err := experiments.PlatformByName(pf, 2)
		if err != nil {
			log.Fatal(err)
		}
		p := fmm.Params{
			Particles: *particles, Height: *height,
			Clustered: !*uniform, Machine: m, Seed: 42,
		}
		tree := fmm.BuildTree(p)
		fmt.Printf("[%s] FMM %d particles, height %d, %d leaf groups\n",
			pf, *particles, *height, fmm.NumGroups(p, tree))
		// A run writes nothing of the graph: every scheduler runs the
		// one built for this machine.
		g := fmm.BuildFromTree(p, tree)
		for _, name := range []string{"multiprio", "dmdas", "heteroprio"} {
			s, err := experiments.NewScheduler(name)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Run(m, g, s)
			if err != nil {
				log.Fatal(err)
			}
			// P2P share per architecture shows who got the accelerated
			// kernel.
			var p2pGPU, p2pAll int
			for _, sp := range res.Trace.Spans {
				if sp.Kind != "p2p" {
					continue
				}
				p2pAll++
				if m.Units[sp.Worker].Arch == platform.ArchGPU {
					p2pGPU++
				}
			}
			fmt.Printf("  %-12s makespan %8.2fms   cpu idle %5.1f%%  gpu idle %5.1f%%  p2p on GPU %3d/%d\n",
				name, res.Makespan*1e3,
				res.Trace.ArchIdlePercent(platform.ArchCPU),
				res.Trace.ArchIdlePercent(platform.ArchGPU),
				p2pGPU, p2pAll)
		}
		fmt.Println()
	}
}
