package heft

import (
	"bytes"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

const mib = int64(1) << 20

func planMachine(t *testing.T) *platform.Machine {
	t.Helper()
	m, err := platform.NewHeteroNode("heft", 5, 10, 2, 100, 8*mib, 5e9, platform.Config{})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

func planGraph(m *platform.Machine, typed float64) *runtime.Graph {
	return randdag.Build(randdag.Params{
		Layers: 8, Width: 10, EdgeProb: 0.3, CommuteShare: 0.2,
		TypedFraction: typed, Machine: m, Seed: 17,
	})
}

// TestPlanDeterminism pins that BuildPlan is a pure function of
// (graph, machine, model): rebuilding from a regenerated graph yields
// byte-identical canonical plans, for both ranking algorithms.
func TestPlanDeterminism(t *testing.T) {
	m := planMachine(t)
	for _, alg := range []Algorithm{RankUpward, RankOptimistic} {
		p1, err := BuildPlan(runtime.NewEnv(m, planGraph(m, 0)), alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		p2, err := BuildPlan(runtime.NewEnv(m, planGraph(m, 0)), alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !bytes.Equal(p1.Canonical(), p2.Canonical()) {
			t.Errorf("%v: plan not deterministic across rebuilds", alg)
		}
	}
}

// TestPlanValidity checks structural soundness of the plan: every task
// on a capable worker, dependencies respected by the planned timeline
// (including the modeled transfer when crossing memory nodes), and no
// overlap within one worker's planned intervals.
func TestPlanValidity(t *testing.T) {
	m := planMachine(t)
	for _, typed := range []float64{0, 0.5} {
		g := planGraph(m, typed)
		env := runtime.NewEnv(m, g)
		for _, alg := range []Algorithm{RankUpward, RankOptimistic} {
			p, err := BuildPlan(env, alg)
			if err != nil {
				t.Fatalf("typed=%g %v: %v", typed, alg, err)
			}
			for _, task := range g.Tasks {
				w := p.Assignment[task.ID]
				if !task.CanRun(m.Units[w].Arch) {
					t.Errorf("typed=%g %v: task %d pinned to incapable worker %d", typed, alg, task.ID, w)
				}
				for _, id := range g.Preds(task) {
					pr := g.Tasks[id]
					ready := p.Finish[pr.ID]
					if m.Units[p.Assignment[pr.ID]].Mem != m.Units[w].Mem {
						if b := edgeBytes(g, pr, task); b > 0 {
							ready += m.TransferTime(m.Units[p.Assignment[pr.ID]].Mem, m.Units[w].Mem, b)
						}
					}
					if p.Start[task.ID] < ready-1e-12 {
						t.Errorf("typed=%g %v: task %d planned at %g before pred %d ready at %g",
							typed, alg, task.ID, p.Start[task.ID], pr.ID, ready)
					}
				}
				if p.Finish[task.ID] > p.Makespan {
					t.Errorf("typed=%g %v: task %d finishes at %g past makespan %g",
						typed, alg, task.ID, p.Finish[task.ID], p.Makespan)
				}
			}
			for w, ord := range p.Order {
				for i := 1; i < len(ord); i++ {
					if p.Finish[ord[i-1]] > p.Start[ord[i]]+1e-12 {
						t.Errorf("typed=%g %v: worker %d overlap: task %d [%g,%g] vs task %d at %g",
							typed, alg, w, ord[i-1], p.Start[ord[i-1]], p.Finish[ord[i-1]], ord[i], p.Start[ord[i]])
					}
					if p.Slot[ord[i]] != i {
						t.Errorf("typed=%g %v: slot index broken at worker %d pos %d", typed, alg, w, i)
					}
				}
			}
		}
	}
}

// TestPlanTypedAllGPU: with every accelerated task typed, no typed task
// may land on a CPU worker.
func TestPlanTypedAllGPU(t *testing.T) {
	m := planMachine(t)
	g := randdag.Build(randdag.Params{
		Layers: 6, Width: 8, GPUShare: 0.9, TypedFraction: 1, Machine: m, Seed: 3,
	})
	p, err := BuildPlan(runtime.NewEnv(m, g), RankUpward)
	if err != nil {
		t.Fatal(err)
	}
	typed := 0
	for _, task := range g.Tasks {
		if task.Kind() != "typed" {
			continue
		}
		typed++
		if m.Units[p.Assignment[task.ID]].Arch != platform.ArchGPU {
			t.Errorf("typed task %d assigned to non-GPU worker %d", task.ID, p.Assignment[task.ID])
		}
	}
	if typed == 0 {
		t.Fatal("graph has no typed tasks; TypedFraction knob inert")
	}
}

// TestPlanNoCapableWorker: a graph whose task runs nowhere must be a
// loud error, not a bogus plan.
func TestPlanNoCapableWorker(t *testing.T) {
	m := platform.CPUOnly(3)
	g := runtime.NewGraph()
	g.SubmitBatch([]runtime.TaskSpec{{Kind: "gpu-only", Cost: []float64{0}, Flops: 1}})
	if _, err := BuildPlan(runtime.NewEnv(m, g), RankUpward); err == nil {
		t.Fatal("BuildPlan accepted an unschedulable task")
	}
}

// TestCriticalWorker: the critical worker owns the latest-finishing
// task.
func TestCriticalWorker(t *testing.T) {
	m := planMachine(t)
	p, err := BuildPlan(runtime.NewEnv(m, planGraph(m, 0)), RankUpward)
	if err != nil {
		t.Fatal(err)
	}
	cw := p.CriticalWorker()
	for i := range p.Finish {
		if p.Finish[i] >= p.Makespan-1e-12 && p.Assignment[i] != cw {
			t.Errorf("latest task %d on worker %d, CriticalWorker says %d", i, p.Assignment[i], cw)
		}
	}
}

// TestBuildPlanAllocations pins what planning allocates: rank, slot and
// per-unit timeline tables plus their growth steps (627 on this graph),
// under a tenth of an allocation per task.
func TestBuildPlanAllocations(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := randdag.Build(randdag.Params{Layers: 200, Width: 50, EdgeProb: 0.1, Machine: m, Seed: 42})
	env := runtime.NewEnv(m, g)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := BuildPlan(env, RankUpward); err != nil {
			t.Fatal(err)
		}
	})
	if perTask := allocs / float64(len(g.Tasks)); allocs > 820 || perTask > 0.1 {
		t.Errorf("a plan for %d tasks allocates %v times (%.3f per task), want <= 820 and <= 0.1 per task", len(g.Tasks), allocs, perTask)
	}
}
