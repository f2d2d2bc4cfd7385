package runtime

import (
	"fmt"
	"testing"

	"multiprio/internal/platform"
)

// BenchmarkThreadedNoop is the threaded engine's worker-count axis: each
// iteration is one run of a 2·10^4-task layered graph with no-op kernels
// through a locked FIFO, at 1, 2, 4, 8 and 16 workers. What it measures
// is the engine's own cost per task — the run lock, Pop, dependency
// release, parking and waking — reported as ns/task.
func BenchmarkThreadedNoop(b *testing.B) {
	g := layeredGraph(400, 0, 42)
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			eng, err := NewThreadedEngine(platform.CPUOnly(n), &ringSched{buf: make([]*Task, len(g.Tasks))})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(g.Tasks)), "ns/task")
		})
	}
}
