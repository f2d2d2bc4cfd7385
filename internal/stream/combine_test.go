package stream_test

import (
	"slices"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"
	"multiprio/internal/stream"

	_ "multiprio/internal/sched/all"
)

func combineMachine(t *testing.T) *platform.Machine {
	t.Helper()
	m, err := platform.NewHeteroNode("comb", 3, 10, 1, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCombinePreservesEdges checks that the disjoint union keeps every
// subgraph dependency — STF-inferred and explicitly declared — and adds
// no cross-tenant edges.
func TestCombinePreservesEdges(t *testing.T) {
	// Tenant 0: a write-read chain over one handle (inferred edges) plus
	// an explicit Declare between data-independent tasks.
	g0 := runtime.NewGraph()
	h := g0.NewData("h", 1024)
	a := g0.Submit(runtime.TaskSpec{Kind: "w", Cost: []float64{1}, Accesses: []runtime.Access{{Handle: h, Mode: runtime.W}}})
	b := g0.Submit(runtime.TaskSpec{Kind: "r", Cost: []float64{1}, Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
	c := g0.Submit(runtime.TaskSpec{Kind: "free", Cost: []float64{1}})
	g0.Declare(a, c)
	// Tenant 1: two independent tasks.
	g1 := runtime.NewGraph()
	g1.Submit(runtime.TaskSpec{Kind: "x", Cost: []float64{1}})
	g1.Submit(runtime.TaskSpec{Kind: "y", Cost: []float64{1}})

	g, plan, err := stream.Combine(g0, g1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks) != 5 {
		t.Fatalf("combined graph has %d tasks, want 5", len(g.Tasks))
	}
	wantTenant := []int{0, 0, 0, 1, 1}
	for id, k := range plan.TenantOf {
		if k != wantTenant[id] {
			t.Fatalf("task %d assigned to tenant %d, want %d", id, k, wantTenant[id])
		}
	}
	// a->b (inferred) and a->c (declared) survive; tenant 1 has no preds.
	preds := func(id int64) int { return len(g.Preds(g.Tasks[id])) }
	if preds(0) != 0 || preds(1) != 1 || preds(2) != 1 {
		t.Fatalf("tenant 0 pred counts = %d/%d/%d, want 0/1/1", preds(0), preds(1), preds(2))
	}
	if preds(3) != 0 || preds(4) != 0 {
		t.Fatalf("tenant 1 gained cross-tenant dependencies")
	}
	if g.Tasks[1].Kind() != b.Kind() || g.Tasks[2].Kind() != c.Kind() {
		t.Fatalf("combined tasks lost their identity")
	}
	if err := plan.Validate(g); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
}

// TestCombineCarriesTables: each tenant's kinds, cost rows and kernels
// come through Combine task for task, though the tenants number their
// kinds differently and one shares a cost row between tasks; the
// combined graph interns the kinds once, and its rows are its own.
func TestCombineCarriesTables(t *testing.T) {
	var ran []string
	kernel := func(name string) func(runtime.WorkerInfo) {
		return func(runtime.WorkerInfo) { ran = append(ran, name) }
	}
	g0 := runtime.NewGraph()
	shared := []float64{1, 0.5}
	g0.Submit(runtime.TaskSpec{Kind: "gemm", Cost: shared, Run: kernel("a")})
	g0.Submit(runtime.TaskSpec{Kind: "potrf", Cost: []float64{2}})
	g0.Submit(runtime.TaskSpec{Kind: "gemm", Cost: shared, Run: kernel("c")})
	g1 := runtime.NewGraph()
	g1.Submit(runtime.TaskSpec{Kind: "potrf", Cost: []float64{0, 3, 4}, Run: kernel("d")})
	g1.Submit(runtime.TaskSpec{Kind: "syrk", Cost: []float64{5, 6}})

	g, _, err := stream.Combine(g0, g1)
	if err != nil {
		t.Fatal(err)
	}
	subs := append(append([]*runtime.Task(nil), g0.Tasks...), g1.Tasks...)
	for i, want := range subs {
		got := g.Tasks[i]
		if got.Kind() != want.Kind() || !slices.Equal(got.Cost(), want.Cost()) ||
			(got.Kernel() == nil) != (want.Kernel() == nil) {
			t.Fatalf("task %d: kind %q cost %v kernel %t, want %q %v %t", i,
				got.Kind(), got.Cost(), got.Kernel() != nil, want.Kind(), want.Cost(), want.Kernel() != nil)
		}
		if k := got.Kernel(); k != nil {
			k(runtime.WorkerInfo{})
		}
		if len(got.Cost()) > 0 && &got.Cost()[0] == &want.Cost()[0] {
			t.Fatalf("task %d shares its tenant's cost row", i)
		}
	}
	if !slices.Equal(ran, []string{"a", "c", "d"}) {
		t.Fatalf("combined kernels ran %v, want [a c d]", ran)
	}
	if kinds := g.Kinds(); !slices.Equal(kinds, []string{"gemm", "potrf", "syrk"}) {
		t.Fatalf("combined kind table %v, want [gemm potrf syrk]", kinds)
	}
	if g.Tasks[1].KindID() != g.Tasks[3].KindID() || g.Tasks[0].KindID() != g.Tasks[2].KindID() {
		t.Fatalf("tasks of one kind got different KindIDs")
	}
}

// TestCombineStreamedRun combines per-tenant random DAGs, streams them
// with Poisson arrivals through the Fair wrapper, and validates the run
// against the oracle including StreamCheck.
func TestCombineStreamedRun(t *testing.T) {
	m := combineMachine(t)
	subs := make([]*runtime.Graph, 3)
	for k := range subs {
		subs[k] = randdag.Build(randdag.Params{Layers: 5, Width: 6, CommuteShare: 0.2,
			Machine: m, Seed: int64(100 + k)})
	}
	g, plan, err := stream.Combine(subs...)
	if err != nil {
		t.Fatal(err)
	}
	counts := plan.TasksOf()
	spec := &stream.ArrivalSpec{Seed: 21, Tenants: make([]stream.TenantArrivals, 3)}
	for k := range spec.Tenants {
		spec.Tenants[k] = stream.TenantArrivals{Rate: float64(counts[k]) * 10, Shape: stream.Poisson}
	}
	if err := spec.Generate(plan); err != nil {
		t.Fatal(err)
	}
	for k := range plan.Limits {
		plan.Limits[k] = 3
	}
	fair, err := stream.New("multiprio", plan, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, g, fair, runtime.WithMemEvents(), runtime.WithArrivals(plan.Arrivals))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if err := oracle.Check(g, res.Trace, oracle.Options{
		OverflowBytes: res.OverflowBytes,
		Stream:        &oracle.StreamCheck{Plan: plan, Admissions: fair.AdmissionLog()},
	}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// TestCombineErrors checks the empty union is rejected.
func TestCombineErrors(t *testing.T) {
	if _, _, err := stream.Combine(); err == nil {
		t.Error("empty Combine accepted")
	}
}
