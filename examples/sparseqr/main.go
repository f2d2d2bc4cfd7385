// SparseQR: the multifrontal QR workload of the paper's Fig. 8 on one
// matrix of the evaluation set, with the per-kernel per-architecture
// execution split and the practical critical path.
//
// Run with: go run ./examples/sparseqr [-matrix TF17] [-platform intel-v100]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/experiments"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

func main() {
	matrix := flag.String("matrix", "TF17", "matrix name from the paper's Fig. 7 set")
	platformName := flag.String("platform", "intel-v100", "platform model")
	flag.Parse()

	stats, ok := sparseqr.ByName(*matrix)
	if !ok {
		log.Fatalf("unknown matrix %q; available:", *matrix)
	}
	m, err := experiments.PlatformByName(*platformName, 4)
	if err != nil {
		log.Fatal(err)
	}
	tree := sparseqr.BuildTree(stats)
	fmt.Printf("%s: %d×%d, %d nonzeros, %.0f Gflop published -> %d fronts, %.0f Gflop generated\n",
		stats.Name, stats.Rows, stats.Cols, stats.Nonzeros, stats.OpCount,
		len(tree.Fronts), tree.TotalFlops()/1e9)

	// A run writes nothing of the graph: every scheduler runs this one.
	g := sparseqr.BuildFromTree(tree, sparseqr.Params{Machine: m})
	for _, name := range []string{"multiprio", "dmdas", "heteroprio"} {
		s, err := experiments.NewScheduler(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(m, g, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[%s] makespan %.3fs (%.0f GFlop/s effective)\n",
			name, res.Makespan, g.TotalFlops()/res.Makespan/1e9)

		type key struct{ kind, arch string }
		count := map[key]int{}
		for _, sp := range res.Trace.Spans {
			count[key{sp.Kind, m.ArchName(m.Units[sp.Worker].Arch)}]++
		}
		keys := make([]key, 0, len(count))
		for k := range count {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].kind != keys[j].kind {
				return keys[i].kind < keys[j].kind
			}
			return keys[i].arch < keys[j].arch
		})
		for _, k := range keys {
			fmt.Printf("  %-10s on %-4s %6d tasks\n", k.kind, k.arch, count[k])
		}
		cp := runtime.PracticalCriticalPath(g, res.Tasks)
		fmt.Printf("  practical critical path: %d tasks\n", len(cp))
	}
}
