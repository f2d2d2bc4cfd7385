package randdag

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"
	"testing/quick"
	"time"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/race"
	"multiprio/internal/runtime"
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

// buildSequential is Build as one loop on one goroutine, drawing and
// assembling in turn: the reference the drawer pipeline must reproduce
// task for task.
func buildSequential(p Params) *runtime.Graph {
	if p.Machine == nil {
		panic("randdag: nil machine")
	}
	if p.Layers < 1 || p.Width < 1 {
		panic(fmt.Sprintf("randdag: %d layers x %d width", p.Layers, p.Width))
	}
	p = p.defaults()
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Layers * p.Width
	nh := n
	if p.CommuteShare > 0 {
		nh++
	}
	g := runtime.NewGraphWithCapacity(n, nh)
	b := g.NewBatch(n)

	// Commuting tasks all update one shared accumulator; created lazily
	// so CommuteShare == 0 leaves the random stream of existing seeds
	// untouched.
	var accum *runtime.DataHandle
	if p.CommuteShare > 0 {
		accum = g.NewData("acc", 4096)
	}

	// One output handle per task (task i of layer l owns outs[l*Width+i]);
	// an edge is expressed as the consumer reading the producer's output.
	outs := make([]*runtime.DataHandle, n)
	for l := 0; l < p.Layers; l++ {
		for i := 0; i < p.Width; i++ {
			outs[l*p.Width+i] = b.NewData(int64(rng.Intn(1<<20)+4096), "d%d.%d", l, i)
		}
	}

	// Specs are generated up front (same RNG draw order as the former
	// per-task Submit loop) and submitted in one batch, their access
	// lists and cost rows carved from the batch's slabs: for million-task
	// graphs this is the difference between a dozen allocations per task
	// and a handful of arena chunks.
	var acc []runtime.Access
	spreadLog := math.Log(p.GranularitySpread)
	for l := 0; l < p.Layers; l++ {
		for i := 0; i < p.Width; i++ {
			// Log-uniform cost in [mean/sqrt(spread), mean*sqrt(spread)].
			f := math.Exp((rng.Float64() - 0.5) * spreadLog)
			cpu := p.MeanCost * f
			cost := b.Cost(len(p.Machine.Archs))
			cost[platform.ArchCPU] = cpu
			kind := "host"
			if int(platform.ArchGPU) < len(p.Machine.Archs) && rng.Float64() < p.GPUShare {
				// 10-40x accelerated, plus a launch floor.
				cost[platform.ArchGPU] = cpu/(10+30*rng.Float64()) + 1e-5
				kind = "accel"
				if p.TypedFraction > 0 && rng.Float64() < p.TypedFraction {
					cost[platform.ArchCPU] = 0 // GPU-only: CPU not capable
					kind = "typed"
				}
			}
			acc = append(acc[:0], runtime.Access{Handle: outs[l*p.Width+i], Mode: runtime.W})
			if l > 0 {
				for _, h := range outs[(l-1)*p.Width : l*p.Width] {
					if rng.Float64() < p.EdgeProb {
						acc = append(acc, runtime.Access{Handle: h, Mode: runtime.R})
					}
				}
			}
			if accum != nil && rng.Float64() < p.CommuteShare {
				acc = append(acc, runtime.Access{Handle: accum, Mode: runtime.Commute})
			}
			b.Add(runtime.TaskSpec{
				Kind:      kind,
				Footprint: uint64(10 * math.Round(cpu*1e4)), // bucketed by size
				Flops:     cpu * 1e9,
				Cost:      cost,
				Accesses:  b.Accesses(acc...),
				Priority:  rng.Intn(100),
			})
		}
	}
	b.Submit()
	return g
}

// sameGraph fails t unless a and b hold the same tasks and handles:
// every task's kind, cost bits, footprint, flops, priority and (handle
// ID, mode) accesses, and every handle's name and size.
func sameGraph(t *testing.T, a, b *runtime.Graph) {
	t.Helper()
	if len(a.Tasks) != len(b.Tasks) || len(a.Handles) != len(b.Handles) {
		t.Fatalf("%d tasks and %d handles, want %d and %d", len(a.Tasks), len(a.Handles), len(b.Tasks), len(b.Handles))
	}
	for i, x := range a.Tasks {
		y := b.Tasks[i]
		if x.Kind != y.Kind || x.Footprint != y.Footprint || x.Priority != y.Priority ||
			math.Float64bits(x.Flops) != math.Float64bits(y.Flops) ||
			len(x.Cost) != len(y.Cost) || len(x.Accesses) != len(y.Accesses) {
			t.Fatalf("task %d: %s fp %d prio %d flops %v, %d costs, %d accesses; want %s fp %d prio %d flops %v, %d costs, %d accesses",
				i, x.Kind, x.Footprint, x.Priority, x.Flops, len(x.Cost), len(x.Accesses),
				y.Kind, y.Footprint, y.Priority, y.Flops, len(y.Cost), len(y.Accesses))
		}
		for k := range x.Cost {
			if math.Float64bits(x.Cost[k]) != math.Float64bits(y.Cost[k]) {
				t.Fatalf("task %d: cost[%d] = %v, want %v", i, k, x.Cost[k], y.Cost[k])
			}
		}
		for k, acc := range x.Accesses {
			want := y.Accesses[k]
			if acc.Handle.ID != want.Handle.ID || acc.Mode != want.Mode {
				t.Fatalf("task %d: access %d = (%d, %v), want (%d, %v)", i, k, acc.Handle.ID, acc.Mode, want.Handle.ID, want.Mode)
			}
		}
	}
	for i, h := range a.Handles {
		if h.Name != b.Handles[i].Name || h.Bytes != b.Handles[i].Bytes {
			t.Fatalf("handle %d: %q %d B, want %q %d B", i, h.Name, h.Bytes, b.Handles[i].Name, b.Handles[i].Bytes)
		}
	}
}

func TestBuildMatchesSequential(t *testing.T) {
	gpu := platform.IntelV100(platform.Config{})
	cpu := platform.NUMANode(1, 2, 0)
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"defaults", Params{Layers: 5, Width: 8, Machine: gpu, Seed: 3}},
		{"cpu-only", Params{Layers: 20, Width: 30, Machine: cpu, Seed: 4}},
		{"no-gpu-share", Params{Layers: 20, Width: 30, GPUShare: -1, Machine: gpu, Seed: 4}},
		{"commute-typed", Params{Layers: 30, Width: 40, GPUShare: 0.8, TypedFraction: 0.5, CommuteShare: 0.3, Machine: gpu, Seed: 5}},
		{"commute-cpu", Params{Layers: 30, Width: 40, CommuteShare: 0.6, Machine: cpu, Seed: 6}},
		{"one-layer", Params{Layers: 1, Width: 3000, CommuteShare: 0.2, Machine: gpu, Seed: 7}},
		{"width-1", Params{Layers: 700, Width: 1, EdgeProb: 0.9, Machine: gpu, Seed: 8}},
		{"width-1-on-chunk", Params{Layers: chunkLen, Width: 1, Machine: gpu, Seed: 9}},
		{"width-1-past-chunk", Params{Layers: chunkLen + 1, Width: 1, Machine: gpu, Seed: 9}},
		{"layers-on-chunk", Params{Layers: 2 * chunkLen / 32, Width: 32, Machine: gpu, Seed: 10}},
		{"layers-past-chunk", Params{Layers: 2*chunkLen/32 + 1, Width: 32, Machine: gpu, Seed: 10}},
		{"wider-than-chunk", Params{Layers: 3, Width: chunkLen + 300, EdgeProb: 0.3, TypedFraction: 0.4, Machine: gpu, Seed: 11}},
		{"picks-past-chunk", Params{Layers: 12, Width: 300, EdgeProb: 1, Machine: cpu, Seed: 12}},
		{"wider-than-picks", Params{Layers: 2, Width: chunkEdges + 100, EdgeProb: 0.001, Machine: cpu, Seed: 13}},
		{"benchmark", Params{Layers: 400, Width: 50, EdgeProb: 0.1, Machine: gpu, Seed: 42}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sameGraph(t, Build(tc.p), buildSequential(tc.p))
		})
	}
}

// FuzzBuildMatchesSequential holds Build to the one-loop reference over
// fuzzed shapes and shares, with graphs up to a few chunks long and
// layers up to a chunk and a half wide.
func FuzzBuildMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint16(5), uint16(8), uint8(25), uint8(50), uint8(0), uint8(0), false)
	f.Add(int64(2), uint16(3), uint16(1300), uint8(10), uint8(80), uint8(30), uint8(50), false)
	f.Add(int64(3), uint16(1024), uint16(0), uint8(90), uint8(0), uint8(100), uint8(0), true)
	f.Add(int64(4), uint16(64), uint16(31), uint8(100), uint8(100), uint8(5), uint8(100), false)
	f.Fuzz(func(t *testing.T, seed int64, layers, width uint16, edgePct, gpuPct, commutePct, typedPct uint8, cpuOnly bool) {
		m := platform.IntelV100(platform.Config{})
		if cpuOnly {
			m = platform.NUMANode(1, 2, 0)
		}
		w := 1 + int(width)%(chunkLen+chunkLen/2)
		gpuShare := float64(gpuPct%101) / 100
		if gpuShare == 0 {
			gpuShare = -1
		}
		p := Params{
			Layers:        1 + int(layers)%(1+4*chunkLen/w),
			Width:         w,
			EdgeProb:      float64(edgePct%101) / 100,
			GPUShare:      gpuShare,
			CommuteShare:  float64(commutePct%101) / 100,
			TypedFraction: float64(typedPct%101) / 100,
			Machine:       m,
			Seed:          seed,
		}
		sameGraph(t, Build(p), buildSequential(p))
	})
}

// TestBuildLeavesNoDrawer checks that no drawer goroutine outlives its
// Build, including a Build that panics while the drawer is blocked on a
// full ring (a machine without architectures has no cost row to fill).
func TestBuildLeavesNoDrawer(t *testing.T) {
	base := goruntime.NumGoroutine()
	gpu := platform.IntelV100(platform.Config{})
	for i := 0; i < 100; i++ {
		p := Params{Layers: 1 + i%7*15, Width: 1 + i*37%130, CommuteShare: float64(i%3) / 4, Machine: gpu, Seed: int64(i)}
		if i%10 == 9 {
			p.Machine = &platform.Machine{}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Build on a machine without architectures did not panic")
					}
				}()
				Build(p)
			}()
			continue
		}
		Build(p)
	}
	// A drawer has returned when Build does; the runtime may take a
	// moment longer to retire its goroutine.
	for wait := time.Millisecond; goruntime.NumGoroutine() > base; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%d goroutines after 100 builds, %d before", goruntime.NumGoroutine(), base)
		}
		time.Sleep(wait)
	}
}

// TestBuildAllocatesSlabsNotTasks pins the allocation-free build: the
// whole 10^5-task graph costs a constant number of slabs, arena chunks
// and ring buffers, 58 heap allocations or 0.0006 per task (it was 17),
// and — with the topology as int32 IDs and no staging copy of the specs
// — under 600 bytes per task, successor view included (506 measured; it
// was 823).
func TestBuildAllocatesSlabsNotTasks(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := Params{Layers: 2000, Width: 50, EdgeProb: 0.1, Machine: platform.IntelV100(platform.Config{}), Seed: 42}
	build := func() { Build(p).Validate() }
	allocs := testing.AllocsPerRun(2, build)
	if allocs > 63 {
		t.Fatalf("%.0f allocations for %d tasks, want <= 63 (0.00063 per task)", allocs, p.Layers*p.Width)
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

var buildSink *runtime.Graph

// BenchmarkBuild times the 3·10^5-task build of the repository
// benchmark's sim-randdag-3e5-eager job.
func BenchmarkBuild(b *testing.B) {
	p := Params{Layers: 6000, Width: 50, EdgeProb: 0.1, Machine: platform.IntelV100(platform.Config{}), Seed: 42}
	for i := 0; i < b.N; i++ {
		buildSink = Build(p)
	}
}
