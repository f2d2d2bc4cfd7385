package dense

import (
	"math"
	"testing"
	"testing/quick"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/race"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

func params(tiles, b int) Params {
	return Params{Tiles: tiles, TileSize: b, Machine: platform.IntelV100(platform.Config{})}
}

func TestCholeskyTaskCount(t *testing.T) {
	for _, tiles := range []int{1, 2, 3, 5, 10} {
		g := Cholesky(params(tiles, 64))
		if got, want := len(g.Tasks), CholeskyTaskCount(tiles); got != want {
			t.Errorf("tiles=%d: %d tasks, want %d", tiles, got, want)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("tiles=%d: %v", tiles, err)
		}
	}
}

func TestLUTaskCount(t *testing.T) {
	for _, tiles := range []int{1, 2, 4, 8} {
		g := LU(params(tiles, 64))
		if got, want := len(g.Tasks), LUTaskCount(tiles); got != want {
			t.Errorf("tiles=%d: %d tasks, want %d", tiles, got, want)
		}
	}
}

func TestQRTaskCount(t *testing.T) {
	for _, tiles := range []int{1, 2, 4, 8} {
		g := QR(params(tiles, 64))
		if got, want := len(g.Tasks), QRTaskCount(tiles); got != want {
			t.Errorf("tiles=%d: %d tasks, want %d", tiles, got, want)
		}
	}
}

// TestUseCounts pins the access counts each generator reserves its
// graph's use table with to the accesses it then stages: a count too
// small would grow the table by append, one too large would keep the
// excess alive with the graph.
func TestUseCounts(t *testing.T) {
	uses := func(g *runtime.Graph) (n int) {
		for _, task := range g.Tasks {
			n += len(task.Uses())
		}
		return n
	}
	for _, tiles := range []int{1, 2, 3, 5, 8} {
		for _, c := range []struct {
			name string
			g    *runtime.Graph
			want int
		}{
			{"cholesky", Cholesky(params(tiles, 64)), choleskyUses(tiles)},
			{"lu", LU(params(tiles, 64)), luUses(tiles)},
			{"qr", QR(params(tiles, 64)), qrUses(tiles)},
		} {
			if got := uses(c.g); got != c.want {
				t.Errorf("%s, %d tiles: %d uses, reserved %d", c.name, tiles, got, c.want)
			}
		}
	}
	for _, nb := range []int{1, 2, 3} {
		for _, st := range []int{1, 2, 4} {
			g := HierarchicalCholesky(HierParams{Blocks: nb, SubTiles: st, TileSize: 64, Machine: platform.IntelV100(platform.Config{})})
			if got, want := uses(g), hierUses(nb, st); got != want {
				t.Errorf("hierarchical %d×%d: %d uses, reserved %d", nb, st, got, want)
			}
		}
	}
}

func TestLUHeavierThanCholesky(t *testing.T) {
	pc := params(6, 256)
	if LU(pc).TotalFlops() <= Cholesky(pc).TotalFlops() {
		t.Error("LU should carry more flops than Cholesky at equal size")
	}
}

func TestCholeskyDAGStructure(t *testing.T) {
	g := Cholesky(params(3, 64))
	// First task is POTRF(0) with no predecessors; last is POTRF(2).
	first, last := g.Tasks[0], g.Tasks[len(g.Tasks)-1]
	if first.Kind() != "potrf" || first.NumPreds() != 0 {
		t.Errorf("first task %s with %d preds", first.Kind(), first.NumPreds())
	}
	if last.Kind() != "potrf" || len(last.Succs()) != 0 {
		t.Errorf("last task %s with %d succs", last.Kind(), len(last.Succs()))
	}
	// TRSM(1,0) depends only on POTRF(0).
	trsm := g.Tasks[1]
	if trsm.Kind() != "trsm" || trsm.NumPreds() != 1 || g.Preds(trsm)[0] != int32(first.ID) {
		t.Error("TRSM(1,0) should depend exactly on POTRF(0)")
	}
}

func TestCostModelAffinityContrast(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	// gemm at a large tile is strongly GPU-favourable.
	gemm := testCost(m, "gemm", 1920)
	if gemm[platform.ArchGPU] >= gemm[platform.ArchCPU]/20 {
		t.Errorf("gemm(1920): cpu %.4g gpu %.4g, want >20x GPU speedup", gemm[0], gemm[1])
	}
	// potrf panel at a small tile is CPU-favourable.
	potrf := testCost(m, "potrf", 320)
	if potrf[platform.ArchGPU] <= potrf[platform.ArchCPU] {
		t.Errorf("potrf(320): cpu %.4g gpu %.4g, want CPU-favourable", potrf[0], potrf[1])
	}
	// GPU efficiency grows with tile size.
	small := testCost(m, "gemm", 320)
	large := testCost(m, "gemm", 2560)
	effSmall := flopCount("gemm", 320) / small[platform.ArchGPU]
	effLarge := flopCount("gemm", 2560) / large[platform.ArchGPU]
	if effLarge <= effSmall {
		t.Error("GPU rate should increase with tile size")
	}
}

func TestFootprintAndFlops(t *testing.T) {
	g := Cholesky(params(2, 128))
	for _, task := range g.Tasks {
		if task.Footprint != 128 {
			t.Fatalf("footprint = %d, want tile size", task.Footprint)
		}
		if task.Flops <= 0 {
			t.Fatalf("task %s has no flops", task.Kind())
		}
	}
}

func TestBottomLevelPriorities(t *testing.T) {
	p := params(4, 256)
	p.UserPriorities = true
	g := Cholesky(p)
	// POTRF(0) heads the critical path: strictly larger priority than
	// any other task.
	first := g.Tasks[0]
	for _, task := range g.Tasks[1:] {
		if task.Priority >= first.Priority {
			t.Fatalf("task %d (%s) priority %d >= POTRF(0) %d",
				task.ID, task.Kind(), task.Priority, first.Priority)
		}
	}
	// Priorities weakly decrease along any dependency edge.
	for _, task := range g.Tasks {
		for _, id := range task.Succs() {
			if s := g.Tasks[id]; s.Priority > task.Priority {
				t.Fatalf("priority increases along edge %s->%s", task.Kind(), s.Kind())
			}
		}
	}
}

func TestQuickBottomLevelMonotonic(t *testing.T) {
	f := func(tilesRaw uint8) bool {
		tiles := int(tilesRaw%5) + 2
		p := params(tiles, 128)
		p.UserPriorities = true
		for _, g := range []*runtime.Graph{Cholesky(p), LU(p), QR(p)} {
			for _, task := range g.Tasks {
				for _, s := range task.Succs() {
					if g.Tasks[s].Priority > task.Priority {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySimulatesOnAllRoutines(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	for name, build := range map[string]func(Params) *runtime.Graph{
		"potrf": Cholesky, "getrf": LU, "geqrf": QR,
	} {
		p := Params{Tiles: 6, TileSize: 640, Machine: m}
		g := build(p)
		res, err := sim.Run(m, g, eager.New())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: makespan %v", name, res.Makespan)
		}
	}
}

func TestMultiPrioSchedulesCholesky(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	p := Params{Tiles: 8, TileSize: 960, Machine: m}
	g := Cholesky(p)
	res, err := sim.Run(m, g, core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: makespan at least the critical path; the serial time is
	// not a hard upper bound (it ignores PCIe transfers) but a run more
	// than 5x above it indicates a broken policy.
	if res.Makespan < g.CriticalPathTime() {
		t.Errorf("makespan %v below critical path %v", res.Makespan, g.CriticalPathTime())
	}
	if res.Makespan > 5*g.SerialTime() {
		t.Errorf("makespan %v far above serial time %v", res.Makespan, g.SerialTime())
	}
}

func TestRealKernelsFactorCorrectly(t *testing.T) {
	p := Params{Tiles: 3, TileSize: 16, Machine: platform.CPUOnly(4)}
	g, verify := CholeskyWithKernels(p, 7)
	eng, err := runtime.NewThreadedEngine(platform.CPUOnly(4), eager.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(g); err != nil {
		t.Fatal(err)
	}
	if err := verify(1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestRealKernelsDetectNonSPD(t *testing.T) {
	a := []float64{1, 0, 0, -1} // not positive definite
	if err := potrfKernel(a, 2); err == nil {
		t.Error("potrfKernel accepted a non-SPD tile")
	}
}

func TestPotrfKernelKnownFactor(t *testing.T) {
	// A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]].
	a := []float64{4, 2, 2, 3}
	if err := potrfKernel(a, 2); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 1, math.Sqrt2}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Fatalf("L = %v, want %v", a, want)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid params did not panic")
		}
	}()
	Cholesky(Params{Tiles: 0, TileSize: 64, Machine: platform.CPUOnly(1)})
}

func TestHierarchicalCholeskyStructure(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	p := HierParams{Blocks: 3, SubTiles: 4, TileSize: 480, Machine: m}
	g := HierarchicalCholesky(p)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(g.Tasks), HierTaskCount(3, 4); got != want {
		t.Errorf("tasks = %d, want %d", got, want)
	}
	// Mixed granularity: fine tasks at footprint b, coarse updates at
	// footprint SubTiles*b.
	var fine, coarse int
	for _, task := range g.Tasks {
		switch task.Footprint {
		case 480:
			fine++
		case 4 * 480:
			coarse++
		default:
			t.Fatalf("unexpected footprint %d", task.Footprint)
		}
	}
	if fine == 0 || coarse == 0 {
		t.Errorf("fine=%d coarse=%d: want both granularities", fine, coarse)
	}
	// Coarse updates must be strongly GPU-favourable, fine panel tasks
	// CPU-favourable or mildly accelerated.
	for _, task := range g.Tasks {
		if task.Footprint == 4*480 && task.Kind() == "gemm" {
			if task.Cost()[platform.ArchGPU] >= task.Cost()[platform.ArchCPU]/20 {
				t.Fatal("coarse gemm not strongly GPU-favourable")
			}
		}
	}
}

func TestHierarchicalCholeskySimulates(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	p := HierParams{Blocks: 3, SubTiles: 4, TileSize: 480, Machine: m}
	g := HierarchicalCholesky(p)
	res, err := sim.Run(m, g, core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < g.CriticalPathTime() {
		t.Error("makespan below critical-path bound")
	}
}

// TestCholeskyAllocatesSlabsNotTasks pins the allocation-free build:
// the use table, tile coordinate tags and handle names come out of
// slabs sized up front and each kernel kind shares one cost row, carved
// from the graph's cost table, so a graph costs under 0.01 heap
// allocations per task (it was 9).
func TestCholeskyAllocatesSlabsNotTasks(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := params(48, 960)
	allocs := testing.AllocsPerRun(2, func() { Cholesky(p) })
	if perTask := allocs / float64(CholeskyTaskCount(p.Tiles)); perTask > 0.01 {
		t.Fatalf("%.0f allocations for %d tasks: %.4f per task, want <= 0.01", allocs, CholeskyTaskCount(p.Tiles), perTask)
	}
	// What remains is per graph: the 364 tasks of 12 tiles cost 23 (28
	// while the cost rows were a map of allocated rows), about as many
	// as the 88 560 of 80 tiles.
	p.Tiles = 12
	if fixed := testing.AllocsPerRun(2, func() { Cholesky(p) }); fixed > 23 {
		t.Fatalf("%.0f allocations for the %d tasks of a 12-tile graph, want <= 23", fixed, CholeskyTaskCount(12))
	}
}

// testCost returns the cost row of one kernel instance on m.
func testCost(m *platform.Machine, kind string, tileSize int) []float64 {
	cost := make([]float64, len(m.Archs))
	fillCost(cost, m, kind, tileSize)
	return cost
}
