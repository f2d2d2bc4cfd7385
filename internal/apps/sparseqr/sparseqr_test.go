package sparseqr

import (
	"fmt"
	"math"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

func TestMatrixTableMatchesPaper(t *testing.T) {
	if len(Matrices) != 10 {
		t.Fatalf("%d matrices, want 10", len(Matrices))
	}
	r, ok := ByName("Rucci1")
	if !ok || r.Rows != 1977885 || r.OpCount != 5527 {
		t.Errorf("Rucci1 stats wrong: %+v", r)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a nonexistent matrix")
	}
}

func TestTreeMatchesOpCount(t *testing.T) {
	for _, stats := range Matrices {
		tr := BuildTree(stats)
		got := tr.TotalFlops() / 1e9
		rel := math.Abs(got-stats.OpCount) / stats.OpCount
		if rel > 0.10 {
			t.Errorf("%s: generated %.0f Gflop vs published %.0f (%.1f%% off)",
				stats.Name, got, stats.OpCount, rel*100)
		}
	}
}

func TestTreeIsDeterministic(t *testing.T) {
	a := BuildTree(Matrices[0])
	b := BuildTree(Matrices[0])
	if len(a.Fronts) != len(b.Fronts) {
		t.Fatal("front counts differ")
	}
	for i := range a.Fronts {
		if a.Fronts[i].Rows != b.Fronts[i].Rows || a.Fronts[i].Cols != b.Fronts[i].Cols {
			t.Fatal("front dims differ between identical builds")
		}
	}
}

func TestTreeStructure(t *testing.T) {
	tr := BuildTree(Matrices[2]) // e18
	if len(tr.Roots) == 0 {
		t.Fatal("no roots")
	}
	// Parent indices exceed child indices (sweep invariant).
	for i := range tr.Fronts {
		f := &tr.Fronts[i]
		if f.Parent >= 0 && f.Parent <= i {
			t.Fatalf("front %d has parent %d (must be larger index)", i, f.Parent)
		}
		for _, c := range f.Children {
			if tr.Fronts[c].Parent != i {
				t.Fatalf("child link broken at front %d", i)
			}
		}
		if f.Rows < 8 || f.Cols < 8 {
			t.Fatalf("degenerate front %d: %dx%d", i, f.Rows, f.Cols)
		}
	}
}

func TestFrontSizeIrregularity(t *testing.T) {
	tr := BuildTree(Matrices[5]) // TF17
	minC, maxC := 1<<30, 0
	for i := range tr.Fronts {
		c := tr.Fronts[i].Cols
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 20*minC {
		t.Errorf("front widths %d..%d: not irregular enough for a multifrontal workload", minC, maxC)
	}
}

func TestGraphStructure(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Matrices[0], Params{Machine: m})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, task := range g.Tasks {
		kinds[task.Kind]++
	}
	for _, k := range []string{"activate", "assemble", "geqrt", "tsqrt", "tsmqr", "stage"} {
		if kinds[k] == 0 {
			t.Errorf("no %s tasks (%v)", k, kinds)
		}
	}
	// Symbolic kernels are CPU-only; updates run on both.
	for _, task := range g.Tasks {
		switch task.Kind {
		case "activate", "assemble", "stage":
			if task.CanRun(platform.ArchGPU) {
				t.Fatalf("%s must be CPU-only", task.Kind)
			}
		case "tsmqr", "unmqr":
			if !task.CanRun(platform.ArchCPU) || !task.CanRun(platform.ArchGPU) {
				t.Fatal("updates must run on both architectures")
			}
		}
	}
}

func TestGranularitySpread(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Matrices[5], Params{Machine: m})
	minC, maxC := math.Inf(1), 0.0
	for _, task := range g.Tasks {
		if task.Kind != "tsmqr" && task.Kind != "unmqr" {
			continue
		}
		c := task.Cost[platform.ArchCPU]
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 100*minC {
		t.Errorf("update cost spread %.2g..%.2g: want >= 2 orders of magnitude", minC, maxC)
	}
}

func TestChildFactorizationPrecedesParent(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	tr := BuildTree(Matrices[0])
	g := BuildFromTree(tr, Params{Machine: m})
	res, err := sim.Run(m, g, eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	// For every front: its activate task must end before any of its
	// geqrt tasks start (handle dependencies), and its stage task must
	// end before the parent's assemble of that child starts. This is
	// implied by STF, spot-check via timestamps per front: every task
	// writes a handle of its own front, named "F<front>.…".
	type times struct{ actEnd, firstGeqrt float64 }
	perFront := map[int]*times{}
	for _, task := range g.Tasks {
		fi := -1
		for _, u := range task.Uses() {
			if u.Mode != runtime.R {
				name := g.Handles[u.Handle].Name
				if _, err := fmt.Sscanf(name, "F%d.", &fi); err != nil {
					t.Fatalf("task %d (%s) writes handle %q: %v", task.ID, task.Kind, name, err)
				}
				break
			}
		}
		tt := perFront[fi]
		if tt == nil {
			tt = &times{firstGeqrt: math.Inf(1)}
			perFront[fi] = tt
		}
		switch task.Kind {
		case "activate":
			tt.actEnd = res.Tasks[task.ID].EndAt
		case "geqrt":
			if start := res.Tasks[task.ID].StartAt; start < tt.firstGeqrt {
				tt.firstGeqrt = start
			}
		}
	}
	for fi, tt := range perFront {
		if tt.firstGeqrt < tt.actEnd-1e-12 {
			t.Fatalf("front %d factorized before activation completed", fi)
		}
	}
}

func TestUserPrioritiesMonotonic(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Matrices[0], Params{Machine: m, UserPriorities: true})
	for _, task := range g.Tasks {
		for _, s := range task.Succs() {
			if g.Tasks[s].Priority > task.Priority {
				t.Fatal("priority increases along an edge")
			}
		}
	}
}

func TestMultiPrioCompletesSparseQR(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Matrices[1], Params{Machine: m})
	res, err := sim.Run(m, g, core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < g.CriticalPathTime() {
		t.Errorf("makespan %v below critical path %v", res.Makespan, g.CriticalPathTime())
	}
}

func TestSizeBucket(t *testing.T) {
	cases := map[int64]uint64{0: 0, 1: 1, 2: 2, 3: 2, 4: 4, 1023: 512, 1024: 1024}
	for in, want := range cases {
		if got := sizeBucket(in); got != want {
			t.Errorf("sizeBucket(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestUserPrioritiesMatchReference: the priorities equal, bit for bit,
// those of the sweep this package carried before the kernel moved to
// runtime.Graph.BottomLevels (kept here as the reference).
func TestUserPrioritiesMatchReference(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	for _, stats := range Matrices[:3] {
		g := Build(stats, Params{Machine: m, UserPriorities: true})
		bl := make([]float64, len(g.Tasks))
		for i := len(g.Tasks) - 1; i >= 0; i-- {
			task := g.Tasks[i]
			best := math.Inf(1)
			for a := range task.Cost {
				if c, ok := task.BaseCost(platform.ArchID(a)); ok && c < best {
					best = c
				}
			}
			if math.IsInf(best, 1) {
				best = 0
			}
			maxSucc := 0.0
			for _, s := range task.Succs() {
				if bl[s] > maxSucc {
					maxSucc = bl[s]
				}
			}
			bl[i] = best + maxSucc
			if want := int(bl[i] * 1e6); task.Priority != want {
				t.Fatalf("%s: task %d priority %d, reference %d", stats.Name, i, task.Priority, want)
			}
		}
	}
}

// TestBuildTreeAllocations pins the assembly-tree synthesis at about
// one allocation per front (587 for e18's 643).
func TestBuildTreeAllocations(t *testing.T) {
	fronts := len(BuildTree(Matrices[2]).Fronts)
	allocs := testing.AllocsPerRun(3, func() { BuildTree(Matrices[2]) })
	if perFront := allocs / float64(fronts); perFront > 1.18 {
		t.Errorf("%.0f allocations for %d fronts: %.2f per front, want <= 1.18", allocs, fronts, perFront)
	}
}

var buildSink *runtime.Graph

// BenchmarkBuild times the graph of the largest Fig. 7 matrix the
// studies build (TF17, Matrices[5]) over its prebuilt assembly tree.
func BenchmarkBuild(b *testing.B) {
	tr := BuildTree(Matrices[5])
	p := Params{Machine: platform.IntelV100(platform.Config{GPUStreams: 1})}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = BuildFromTree(tr, p)
	}
}
