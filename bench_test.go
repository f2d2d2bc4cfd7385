// Package repro provides the benchmark entry points that regenerate the
// paper's tables and figures as Go benchmarks (one per artifact; see
// DESIGN.md §4). Benchmarks run scaled-down configurations so
// `go test -bench=.` completes in minutes; cmd/multiprio-bench runs the
// paper-scale sweeps.
package repro

import (
	"fmt"
	"io"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/experiments"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

// BenchmarkTable2GainHeuristic regenerates Table II.
func BenchmarkTable2GainHeuristic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		if r.Gain[0][0] != 1 {
			b.Fatal("table II mismatch")
		}
	}
}

// BenchmarkFig3NOD regenerates the Fig. 3 criticality example.
func BenchmarkFig3NOD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		if r.NODT2 != 2.5 {
			b.Fatal("fig 3 mismatch")
		}
	}
}

// BenchmarkFig4Eviction regenerates the eviction-mechanism trace study.
func BenchmarkFig4Eviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4(experiments.Quick, false)
		if err != nil {
			b.Fatal(err)
		}
		if r.With.GPUIdlePct >= r.Without.GPUIdlePct {
			b.Fatal("eviction did not reduce GPU idle")
		}
	}
}

// BenchmarkFig5Dense regenerates the dense kernel sweep (reduced grid).
func BenchmarkFig5Dense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(experiments.Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6FMM regenerates the TBFMM comparison (reduced ensemble).
func BenchmarkFig6FMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(experiments.Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Matrices regenerates the matrix table and validates the
// synthetic trees against the published op counts.
func BenchmarkFig7Matrices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8SparseQR regenerates the sparse QR comparison (the six
// smaller matrices).
func BenchmarkFig8SparseQR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(experiments.Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation table.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(experiments.Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Scheduler micro-benchmarks: simulator throughput per policy on a
// mid-size Cholesky, reported as simulated tasks per wall-second.
func benchScheduler(b *testing.B, name string) {
	m := platform.IntelV100(platform.Config{})
	p := dense.Params{Tiles: 16, TileSize: 960, Machine: m, UserPriorities: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := dense.Cholesky(p)
		s, err := experiments.NewScheduler(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(m, g, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedMultiPrio(b *testing.B)  { benchScheduler(b, "multiprio") }
func BenchmarkSchedDmdas(b *testing.B)      { benchScheduler(b, "dmdas") }
func BenchmarkSchedHeteroPrio(b *testing.B) { benchScheduler(b, "heteroprio") }
func BenchmarkSchedLWS(b *testing.B)        { benchScheduler(b, "lws") }
func BenchmarkSchedEager(b *testing.B)      { benchScheduler(b, "eager") }

// BenchmarkSimulatorEventRate measures raw simulator throughput.
func BenchmarkSimulatorEventRate(b *testing.B) {
	m := platform.IntelV100(platform.Config{})
	p := dense.Params{Tiles: 20, TileSize: 960, Machine: m}
	b.ReportAllocs()
	var events int64
	var tasks int
	for i := 0; i < b.N; i++ {
		g := dense.Cholesky(p)
		s, _ := experiments.NewScheduler("eager")
		res, err := sim.Run(m, g, s)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		tasks += len(g.Tasks)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkGraphConstruction measures STF submission throughput.
func BenchmarkGraphConstruction(b *testing.B) {
	m := platform.IntelV100(platform.Config{})
	p := dense.Params{Tiles: 24, TileSize: 960, Machine: m}
	b.ReportAllocs()
	b.ResetTimer() // the machine's own allocations are not the build's
	for i := 0; i < b.N; i++ {
		g := dense.Cholesky(p)
		if len(g.Tasks) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkFMMGraphConstruction measures the octree+group-tree builder.
func BenchmarkFMMGraphConstruction(b *testing.B) {
	m := platform.IntelV100(platform.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := fmm.Build(fmm.Params{Particles: 100_000, Height: 5, Machine: m, Seed: 1})
		if len(g.Tasks) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkSparseTreeConstruction measures the assembly-tree synthesis.
func BenchmarkSparseTreeConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sparseqr.BuildTree(sparseqr.Matrices[2])
		if len(t.Fronts) == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkThreadedEngine measures the real goroutine engine on a small
// Cholesky with live kernels.
func BenchmarkThreadedEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := dense.Params{Tiles: 4, TileSize: 32, Machine: platform.CPUOnly(4)}
		g, verify := dense.CholeskyWithKernels(p, int64(i))
		s, _ := experiments.NewScheduler("multiprio")
		eng, err := runtime.NewThreadedEngine(platform.CPUOnly(4), s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(g); err != nil {
			b.Fatal(err)
		}
		if err := verify(1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// Example-style smoke test ensuring the benches stay wired to real
// experiment code (go vet's printf checks etc. exercise this file).
func TestBenchWiring(t *testing.T) {
	r, err := experiments.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for a := 0; a < 2; a++ {
		for i := 0; i < 3; i++ {
			if r.Gain[a][i] >= 0 && r.Gain[a][i] <= 1 {
				n++
			}
		}
	}
	if n != 6 {
		t.Fatalf("gain matrix out of [0,1]: %+v", r.Gain)
	}
	_ = fmt.Sprintf("%v", r)
}
