package runtime

import (
	"fmt"
	"math"
	"testing"

	"multiprio/internal/platform"
)

// TestKindTable: kinds are interned at submission, one KindID per name,
// in first-seen order, past the slots inside the graph too.
func TestKindTable(t *testing.T) {
	const kinds = 40
	g := NewGraph()
	for i := 0; i < kinds; i++ {
		for _, k := range []string{fmt.Sprintf("k%d", i), "k0", fmt.Sprintf("k%d", i/2)} {
			task := g.Submit(TaskSpec{Kind: k, Cost: []float64{1}})
			if task.Kind() != k || g.Kinds()[task.KindID()] != k {
				t.Fatalf("task %d: Kind %q, table[%d] %q, want %q", task.ID, task.Kind(), task.KindID(), g.Kinds()[task.KindID()], k)
			}
		}
	}
	if len(g.Kinds()) != kinds {
		t.Fatalf("%d kinds, want %d", len(g.Kinds()), kinds)
	}
	for i, k := range g.Kinds() {
		if k != fmt.Sprintf("k%d", i) {
			t.Fatalf("kind %d is %q, want k%d", i, k, i)
		}
	}
	if (&Task{}).Kind() != "" {
		t.Fatal("a task no graph admitted has a kind")
	}
}

// TestCostRowTable pins how a spec's cost row enters the table: a row
// carved from it is taken as it is, by every task that names it while
// it is among the last carvedRows carved; any other row is copied, so
// writing the caller's slice after submission changes nothing.
func TestCostRowTable(t *testing.T) {
	g := NewGraph()
	carved := g.CostRow(2)
	carved[platform.ArchGPU] = 0.5
	a := g.Submit(TaskSpec{Kind: "a", Cost: carved})
	b := g.Submit(TaskSpec{Kind: "b", Cost: carved})
	if &a.Cost()[0] != &carved[0] || &b.Cost()[0] != &carved[0] {
		t.Fatal("a carved row was copied")
	}
	if a.CanRun(platform.ArchCPU) || !a.CanRun(platform.ArchGPU) || a.Caps() != 1<<platform.ArchGPU {
		t.Fatalf("carved row %v: caps %b", a.Cost(), a.Caps())
	}

	own := []float64{1, 0}
	c := g.Submit(TaskSpec{Kind: "c", Cost: own})
	own[platform.ArchCPU], own[platform.ArchGPU] = 0, 7
	if c.Cost()[0] != 1 || c.Cost()[1] != 0 || !c.CanRun(platform.ArchCPU) || c.CanRun(platform.ArchGPU) {
		t.Fatalf("writing the caller's row after Submit moved the task's: %v", c.Cost())
	}
	for i := 0; i < carvedRows; i++ {
		g.CostRow(2)
	}
	d := g.Submit(TaskSpec{Kind: "d", Cost: carved})
	if &d.Cost()[0] == &carved[0] || d.Cost()[1] != 0.5 {
		t.Fatalf("a row carved %d rows ago: %v, shared %v; want a copy", carvedRows+1, d.Cost(), &d.Cost()[0] == &carved[0])
	}
	nan := g.Submit(TaskSpec{Kind: "e", Cost: []float64{math.NaN(), 2}})
	if nan.CanRun(platform.ArchCPU) || !nan.CanRun(platform.ArchGPU) {
		t.Fatalf("NaN row: caps %b", nan.Caps())
	}
	if cap(d.Cost()) != len(d.Cost()) {
		t.Fatal("a cost row view has spare capacity")
	}
	if none := g.Submit(TaskSpec{Kind: "none"}); none.Cost() != nil || none.Caps() != 0 {
		t.Fatalf("a task without a row: %v, caps %b", none.Cost(), none.Caps())
	}
}

// TestWideCostRow: past the capsArchs architectures the capability
// mask covers, CanRun, BaseCost and Caps read the row itself.
func TestWideCostRow(t *testing.T) {
	g := NewGraph()
	row := make([]float64, capsArchs+3)
	row[1], row[capsArchs+1] = 1, 2
	task := g.Submit(TaskSpec{Kind: "wide", Cost: row})
	for a := range row {
		want := a == 1 || a == capsArchs+1
		if task.CanRun(platform.ArchID(a)) != want {
			t.Errorf("CanRun(%d) = %v, want %v", a, !want, want)
		}
	}
	if c, ok := task.BaseCost(capsArchs + 1); !ok || c != 2 {
		t.Errorf("BaseCost(%d) = %v, %v; want 2, true", capsArchs+1, c, ok)
	}
	if task.CanRun(platform.ArchID(len(row))) || task.CanRun(-1) {
		t.Error("CanRun accepted an architecture past the row")
	}
	if want := uint64(1<<1 | 1<<(capsArchs+1)); task.Caps() != want {
		t.Errorf("Caps() = %b, want %b", task.Caps(), want)
	}
	wideOnly := make([]float64, capsArchs+1)
	wideOnly[capsArchs] = 1
	g.Submit(TaskSpec{Kind: "wide-only", Cost: wideOnly})
	if err := g.Validate(); err != nil {
		t.Errorf("a task runnable only past the mask: %v", err)
	}
}

// TestKernelTable: kernels come from the spec or SetKernel, and a graph
// none of whose tasks has one keeps no kernel table.
func TestKernelTable(t *testing.T) {
	g := NewGraph()
	plain := g.Submit(cpuTask("plain", 1))
	if plain.Kernel() != nil || g.kernels != nil {
		t.Fatal("a graph without kernels has a kernel table")
	}
	var ran []string
	spec := cpuTask("spec", 1)
	spec.Run = func(WorkerInfo) { ran = append(ran, "spec") }
	withSpec := g.Submit(spec)
	g.SetKernel(plain, func(WorkerInfo) { ran = append(ran, "set") })
	withSpec.Kernel()(WorkerInfo{})
	plain.Kernel()(WorkerInfo{})
	g.SetKernel(withSpec, nil)
	if withSpec.Kernel() != nil || fmt.Sprint(ran) != "[spec set]" {
		t.Fatalf("kernels ran %v; cleared kernel %v", ran, withSpec.Kernel() != nil)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetKernel accepted another graph's task")
		}
	}()
	NewGraph().SetKernel(plain, nil)
}
