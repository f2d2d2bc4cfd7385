package randdag

import (
	goruntime "runtime"
	"testing"
	"testing/quick"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/race"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

func TestBuildShape(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Params{Layers: 5, Width: 8, Machine: m, Seed: 3})
	if len(g.Tasks) != 40 {
		t.Fatalf("tasks = %d, want 40", len(g.Tasks))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// First layer has no predecessors.
	for _, task := range g.Tasks[:8] {
		if task.NumPreds() != 0 {
			t.Fatal("layer-0 task has predecessors")
		}
	}
	// Some cross-layer edges exist.
	edges := 0
	for _, task := range g.Tasks {
		edges += len(task.Succs())
	}
	if edges == 0 {
		t.Fatal("no edges generated")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	a := Build(Params{Layers: 4, Width: 6, Machine: m, Seed: 11})
	b := Build(Params{Layers: 4, Width: 6, Machine: m, Seed: 11})
	c := Build(Params{Layers: 4, Width: 6, Machine: m, Seed: 12})
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("same seed, different task counts")
	}
	sameCost := true
	for i := range a.Tasks {
		if a.Tasks[i].Cost[0] != b.Tasks[i].Cost[0] {
			t.Fatal("same seed, different costs")
		}
		if a.Tasks[i].Cost[0] != c.Tasks[i].Cost[0] {
			sameCost = false
		}
	}
	if sameCost {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGranularitySpreadRespected(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Params{Layers: 10, Width: 20, GranularitySpread: 100, Machine: m, Seed: 5})
	min, max := 1e18, 0.0
	for _, task := range g.Tasks {
		c := task.Cost[platform.ArchCPU]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max/min < 20 {
		t.Errorf("cost spread %v, want >= 20 with spread=100", max/min)
	}
}

func TestMixedAffinity(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Params{Layers: 6, Width: 20, GPUShare: 0.5, Machine: m, Seed: 7})
	accel, host := 0, 0
	for _, task := range g.Tasks {
		if task.CanRun(platform.ArchGPU) {
			accel++
		} else {
			host++
		}
	}
	if accel == 0 || host == 0 {
		t.Errorf("affinity mix degenerate: %d accel, %d host", accel, host)
	}
}

func TestQuickAlwaysSchedulable(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	f := func(seed int64, layers, width uint8) bool {
		g := Build(Params{
			Layers: int(layers%6) + 1, Width: int(width%10) + 1,
			Machine: m, Seed: seed,
		})
		if g.Validate() != nil {
			return false
		}
		if _, err := sim.Run(m, g, core.New(core.Defaults())); err != nil {
			return false
		}
		g.ResetRun()
		_, err := sim.Run(m, g, eager.New())
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestTypedFractionZeroLeavesStreamUntouched(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	base := Build(Params{Layers: 5, Width: 8, CommuteShare: 0.3, Machine: m, Seed: 17})
	same := Build(Params{Layers: 5, Width: 8, CommuteShare: 0.3, TypedFraction: 0, Machine: m, Seed: 17})
	for i := range base.Tasks {
		if base.Tasks[i].Cost[0] != same.Tasks[i].Cost[0] ||
			base.Tasks[i].Priority != same.Tasks[i].Priority ||
			len(base.Tasks[i].Accesses) != len(same.Tasks[i].Accesses) {
			t.Fatalf("TypedFraction=0 perturbed the random stream at task %d", i)
		}
	}
}

func TestTypedFractionRestrictsToGPU(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Params{Layers: 6, Width: 10, GPUShare: 0.8, TypedFraction: 0.6, Machine: m, Seed: 9})
	typed := 0
	for _, task := range g.Tasks {
		if task.Kind != "typed" {
			continue
		}
		typed++
		if task.CanRun(platform.ArchCPU) {
			t.Errorf("typed task %d still runs on CPU", task.ID)
		}
		if !task.CanRun(platform.ArchGPU) {
			t.Errorf("typed task %d runs nowhere", task.ID)
		}
	}
	if typed == 0 {
		t.Fatal("no typed tasks generated at TypedFraction=0.6")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllocatesSlabsNotTasks pins the allocation-free build: the
// whole 10^5-task graph costs a constant number of slabs and arena
// chunks, 86 heap allocations or 0.0009 per task (it was 17), and —
// with the topology as int32 IDs and no staging copy of the specs —
// under 600 bytes per task, successor view included (571 measured; it
// was 823).
func TestBuildAllocatesSlabsNotTasks(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := Params{Layers: 2000, Width: 50, EdgeProb: 0.1, Machine: platform.IntelV100(platform.Config{}), Seed: 42}
	build := func() { Build(p).Validate() }
	allocs := testing.AllocsPerRun(2, build)
	if allocs > 117 {
		t.Fatalf("%.0f allocations for %d tasks, want <= 117 (0.0012 per task)", allocs, p.Layers*p.Width)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	build()
	goruntime.ReadMemStats(&after)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(p.Layers*p.Width)
	t.Logf("%.1f bytes per task", perTask)
	if perTask > 600 {
		t.Fatalf("%.1f bytes allocated per task, want <= 600", perTask)
	}
}
