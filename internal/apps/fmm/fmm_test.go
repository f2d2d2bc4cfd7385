package fmm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/race"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

func params(n, h int) Params {
	return Params{
		Particles: n, Height: h, Seed: 1,
		Machine: platform.IntelV100(platform.Config{}),
	}
}

func TestTreeConservesParticles(t *testing.T) {
	p := params(10000, 4)
	tr := BuildTree(p)
	total := 0
	for _, n := range tr.Leaves {
		total += n
	}
	if total != 10000 {
		t.Errorf("leaves hold %d particles, want 10000", total)
	}
	if len(tr.Cells[0]) != 1 {
		t.Errorf("root level has %d cells, want 1", len(tr.Cells[0]))
	}
}

func TestTreePrunesEmptyCells(t *testing.T) {
	p := params(50, 5) // 50 particles over up to 16^3 leaves: very sparse
	tr := BuildTree(p)
	if len(tr.Leaves) > 50 || len(tr.Leaves) != len(tr.Cells[p.Height-1]) {
		t.Errorf("%d leaf counts for %d leaves from 50 particles", len(tr.Leaves), len(tr.Cells[p.Height-1]))
	}
	for i, n := range tr.Leaves {
		if n == 0 {
			t.Errorf("leaf %d is empty", i)
		}
	}
	// Each level is strictly ascending and exactly the parents of the
	// level below: every cell's parent is present, and every cell above
	// the leaves has a child.
	for l := p.Height - 1; l > 0; l-- {
		below, above := tr.Cells[l], tr.Cells[l-1]
		if !slices.IsSorted(below) || len(slices.Compact(slices.Clone(below))) != len(below) {
			t.Fatalf("level %d is not strictly ascending: %v", l, below)
		}
		var parents []uint64
		for _, c := range below {
			parents = append(parents, c>>3)
		}
		if parents = slices.Compact(parents); !slices.Equal(parents, above) {
			t.Fatalf("level %d is %v, want the parents of level %d: %v", l-1, above, l, parents)
		}
	}
}

// TestMorton holds the bit spreading to the per-bit interleave it
// replaces, over the full 21 bits per axis, and coords to its inverse.
func TestMorton(t *testing.T) {
	ref := func(x, y, z int) uint64 {
		var code uint64
		for b := 0; b < 21; b++ {
			code |= (uint64(x>>b) & 1) << (3 * b)
			code |= (uint64(y>>b) & 1) << (3*b + 1)
			code |= (uint64(z>>b) & 1) << (3*b + 2)
		}
		return code
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		x, y, z := rng.Intn(1<<21), rng.Intn(1<<21), rng.Intn(1<<21)
		if i == 0 {
			x, y, z = 1<<21-1, 0, 1<<20
		}
		code := morton(x, y, z)
		if want := ref(x, y, z); code != want {
			t.Fatalf("morton(%d, %d, %d) = %#x, want %#x", x, y, z, code, want)
		}
		if gx, gy, gz := coords(code); gx != x || gy != y || gz != z {
			t.Fatalf("coords(%#x) = (%d, %d, %d), want (%d, %d, %d)", code, gx, gy, gz, x, y, z)
		}
	}
}

// TestHeightBounds: a height whose leaves need more than the 21 bits a
// Morton code keeps per axis, or one below the three levels the group
// tree's operators need, is refused with the range.
func TestHeightBounds(t *testing.T) {
	for _, h := range []int{0, 2, 23} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside [3, 22]") {
					t.Errorf("BuildTree(height %d): panic %v, want the range [3, 22]", h, r)
				}
			}()
			BuildTree(params(10, h))
		}()
	}
	if tr := BuildTree(params(10, 22)); len(tr.Cells[21]) == 0 {
		t.Error("height 22 built no leaves")
	}
}

func TestClusteredIsIrregular(t *testing.T) {
	uni := BuildTree(params(100000, 5))
	p := params(100000, 5)
	p.Clustered = true
	clu := BuildTree(p)

	spread := func(tr *Tree) (min, max int) {
		min, max = 1<<30, 0
		for _, n := range tr.Leaves {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		return
	}
	_, uniMax := spread(uni)
	_, cluMax := spread(clu)
	if cluMax <= 2*uniMax {
		t.Errorf("clustered max leaf population %d not well above uniform max %d", cluMax, uniMax)
	}
}

func TestGraphHasAllOperators(t *testing.T) {
	g := Build(params(20000, 4))
	kinds := map[string]int{}
	for _, task := range g.Tasks {
		kinds[task.Kind()]++
	}
	for _, k := range []string{"p2m", "m2m", "m2l", "l2l", "l2p", "p2p"} {
		if kinds[k] == 0 {
			t.Errorf("no %s tasks generated (%v)", k, kinds)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// One P2M, L2P, P2P per leaf group.
	p := params(20000, 4)
	tr := BuildTree(p)
	ng := NumGroups(p, tr)
	if kinds["p2m"] != ng || kinds["l2p"] != ng || kinds["p2p"] != ng {
		t.Errorf("per-group task counts %v vs %d leaf groups", kinds, ng)
	}
}

func TestAffinities(t *testing.T) {
	g := Build(params(50000, 4))
	for _, task := range g.Tasks {
		switch task.Kind() {
		case "p2m", "m2m", "l2l", "l2p":
			if task.CanRun(platform.ArchGPU) {
				t.Fatalf("%s should be CPU-only", task.Kind())
			}
		case "p2p":
			if !task.CanRun(platform.ArchGPU) || !task.CanRun(platform.ArchCPU) {
				t.Fatal("p2p should run on both architectures")
			}
			// Big P2P tasks are GPU-favourable.
			if task.Flops > 5e7 && task.Cost()[platform.ArchGPU] >= task.Cost()[platform.ArchCPU] {
				t.Fatalf("large p2p (%g flops) not GPU-favourable", task.Flops)
			}
		}
	}
}

func TestDisconnectedDAGShortCriticalPath(t *testing.T) {
	g := Build(params(200000, 5))
	cp := g.CriticalPathTime()
	serial := g.SerialTime()
	if cp > serial/10 {
		t.Errorf("critical path %v vs serial %v: DAG not disconnected enough", cp, serial)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	g1 := Build(params(30000, 4))
	g2 := Build(params(30000, 4))
	if len(g1.Tasks) != len(g2.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(g1.Tasks), len(g2.Tasks))
	}
	for i := range g1.Tasks {
		if g1.Tasks[i].Kind() != g2.Tasks[i].Kind() || g1.Tasks[i].Flops != g2.Tasks[i].Flops {
			t.Fatalf("task %d differs between identical builds", i)
		}
	}
}

func TestSimulatesUnderSchedulers(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	p := params(30000, 4)
	p.Machine = m
	for _, s := range []runtime.Scheduler{core.New(core.Defaults()), eager.New()} {
		g := Build(p)
		res, err := sim.Run(m, g, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: zero makespan", s.Name())
		}
	}
}

func TestUseCommuteRemovesP2PToL2PEdges(t *testing.T) {
	p := params(30000, 4)
	plain := Build(p)
	p.UseCommute = true
	commuted := Build(p)

	edges := func(g *runtime.Graph) int {
		n := 0
		for _, task := range g.Tasks {
			n += len(task.Succs())
		}
		return n
	}
	if edges(commuted) >= edges(plain) {
		t.Errorf("commute graph has %d edges vs %d: expected fewer (p2p/l2p decoupled)",
			edges(commuted), edges(plain))
	}
	// L2P must not depend on the same group's P2P anymore.
	for _, task := range commuted.Tasks {
		if task.Kind() != "l2p" {
			continue
		}
		for _, pr := range commuted.Preds(task) {
			if commuted.Tasks[pr].Kind() == "p2p" {
				t.Fatalf("l2p still depends on p2p with commute enabled")
			}
		}
	}
}

func TestUseCommuteSimulates(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	p := params(30000, 4)
	p.Machine = m
	p.UseCommute = true
	g := Build(p)
	res, err := sim.Run(m, g, core.New(core.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

// TestBuildAllocations pins the builder — octree, group tree, graph —
// at under half an allocation per task (157 for 100 000 particles and
// 346 tasks). The octree is one sorted code slice per level, and the
// task loops reuse their scratch, so the count follows the levels and
// the graph's slabs, not the particles or the cells.
func TestBuildAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := params(100_000, 5)
	tasks := len(Build(p).Tasks)
	allocs := testing.AllocsPerRun(1, func() { Build(p) })
	if perTask := allocs / float64(tasks); perTask > 0.6 {
		t.Errorf("%.0f allocations for %d tasks: %.2f per task, want <= 0.6", allocs, tasks, perTask)
	}
}

var buildSink *runtime.Graph

// BenchmarkBuild times the energy study's FMM graph: 300 000 clustered
// particles, height 6, on the Intel-V100 model (2 728 tasks).
func BenchmarkBuild(b *testing.B) {
	p := Params{Particles: 300_000, Height: 6, Clustered: true, Seed: 9,
		Machine: platform.IntelV100(platform.Config{GPUStreams: 1})}
	for i := 0; i < b.N; i++ {
		buildSink = Build(p)
	}
}
