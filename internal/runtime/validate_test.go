package runtime

import (
	"testing"

	"multiprio/internal/platform"
)

// TestValidateReportsRecordedErrors pins Validate's errors — text and
// precedence — now that the offenders are recorded as the graph is built
// instead of searched for: a negative handle size however the handle
// was created, a task without an implementation however it was
// submitted, the handle error before the task error, the first offender
// of each kind, and offenders added to a graph after it was validated.
func TestValidateReportsRecordedErrors(t *testing.T) {
	none := func() []float64 { return []float64{0, -1} }
	runnable := func(g *Graph) *Task { return g.Submit(cpuTask("ok", 1)) }
	for _, tc := range []struct {
		name  string
		build func(g *Graph)
		want  string // "" for no error
	}{
		{"clean", func(g *Graph) {
			g.NewData("h", 0)
			runnable(g)
		}, ""},
		{"negative via NewData", func(g *Graph) {
			g.NewData("ok", 8)
			g.NewData("neg", -1)
			runnable(g)
		}, `runtime: handle "neg" has negative size`},
		{"negative via NewDataOn", func(g *Graph) {
			g.NewDataOn("neg", -8, platform.MemID(1))
		}, `runtime: handle "neg" has negative size`},
		{"negative via Batch.NewData", func(g *Graph) {
			b := g.NewBatch(1)
			b.NewData(8, "h%d", 0)
			b.NewData(-2, "h%d", 1)
			b.Add(TaskSpec{Kind: "ok", Cost: []float64{1}})
			b.Submit()
		}, `runtime: handle "h1" has negative size`},
		{"unrunnable via Submit", func(g *Graph) {
			runnable(g)
			g.Submit(TaskSpec{Kind: "bad", Cost: none()})
		}, "runtime: task 1 (bad) has no implementation"},
		{"unrunnable via SubmitBatch", func(g *Graph) {
			g.SubmitBatch([]TaskSpec{{Kind: "ok", Cost: []float64{1}}, {Kind: "ok", Cost: []float64{1}}, {Kind: "bad"}})
		}, "runtime: task 2 (bad) has no implementation"},
		{"unrunnable via Batch.Add and Admit", func(g *Graph) {
			b := g.NewBatch(3)
			b.Add(TaskSpec{Kind: "ok", Cost: []float64{1}})
			b.Add(TaskSpec{Kind: "bad", Cost: none()})
			b.Admit(1)
			b.Add(TaskSpec{Kind: "ok", Cost: []float64{1}})
			b.Admit(2)
			b.Submit()
		}, "runtime: task 1 (bad) has no implementation"},
		{"handle error first", func(g *Graph) {
			g.Submit(TaskSpec{Kind: "bad", Cost: none()})
			g.NewData("neg", -1)
		}, `runtime: handle "neg" has negative size`},
		{"first offenders", func(g *Graph) {
			g.NewData("ok", 1)
			g.NewData("first", -1)
			g.NewData("second", -1)
			g.Submit(TaskSpec{Kind: "bad0"})
			g.Submit(TaskSpec{Kind: "bad1"})
		}, `runtime: handle "first" has negative size`},
		{"first unrunnable", func(g *Graph) {
			runnable(g)
			g.Submit(TaskSpec{Kind: "bad1"})
			g.Submit(TaskSpec{Kind: "bad2", Cost: none()})
		}, "runtime: task 1 (bad1) has no implementation"},
		{"unrunnable after Validate", func(g *Graph) {
			h := g.NewData("h", 8)
			runnable(g)
			if err := g.Validate(); err != nil {
				panic(err)
			}
			g.Submit(TaskSpec{Kind: "late", Cost: none(), Accesses: []Access{{Handle: h, Mode: R}}})
		}, "runtime: task 1 (late) has no implementation"},
		{"negative after Validate", func(g *Graph) {
			runnable(g)
			if err := g.Validate(); err != nil {
				panic(err)
			}
			g.NewData("late", -1)
		}, `runtime: handle "late" has negative size`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph()
			tc.build(g)
			for round := 0; round < 2; round++ { // a failed Validate changes nothing
				err := g.Validate()
				if got := errText(err); got != tc.want {
					t.Fatalf("round %d: Validate = %q, want %q", round, got, tc.want)
				}
			}
		})
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
