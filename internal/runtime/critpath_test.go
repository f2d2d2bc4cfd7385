package runtime

import "testing"

func TestPracticalCriticalPath(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	a := g.Submit(TaskSpec{Kind: "a", Cost: []float64{1}, Accesses: []Access{{Handle: h, Mode: W}}})
	b := g.Submit(TaskSpec{Kind: "b", Cost: []float64{1}, Accesses: []Access{{Handle: h, Mode: RW}}})
	c := g.Submit(TaskSpec{Kind: "c", Cost: []float64{1}}) // independent, fast
	st := make(RunState, len(g.Tasks))
	st[a.ID].StartAt, st[a.ID].EndAt = 0, 1
	st[b.ID].StartAt, st[b.ID].EndAt = 1, 3
	st[c.ID].StartAt, st[c.ID].EndAt = 0, 0.5

	path := PracticalCriticalPath(g, st)
	if len(path) != 2 || path[0] != a || path[1] != b {
		t.Errorf("critical path = %v, want [a b]", kinds(path))
	}
}

func TestPracticalCriticalPathEmpty(t *testing.T) {
	g := NewGraph()
	if p := PracticalCriticalPath(g, nil); p != nil {
		t.Errorf("critical path of empty graph = %v", p)
	}
	// No run, or an unexecuted one (EndAt zero everywhere), yields nil.
	g.Submit(TaskSpec{Kind: "a", Cost: []float64{1}})
	if p := PracticalCriticalPath(g, nil); p != nil {
		t.Errorf("critical path without a run = %v", p)
	}
	if p := PracticalCriticalPath(g, make(RunState, 1)); p != nil {
		t.Errorf("critical path of unexecuted graph = %v", p)
	}
}

func kinds(ts []*Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Kind()
	}
	return out
}

// TestBottomLevels: a diamond with a declared edge and a task no
// architecture implements. Each task weighs its cheapest implemented cost
// (0 when there is none); the longest chain through it to an exit adds up.
func TestBottomLevels(t *testing.T) {
	g := NewGraph()
	h, k := g.NewData("x", 8), g.NewData("y", 8)
	a := g.Submit(TaskSpec{Kind: "a", Cost: []float64{4, 1}, Accesses: []Access{{Handle: h, Mode: W}, {Handle: k, Mode: W}}})
	b := g.Submit(TaskSpec{Kind: "b", Cost: []float64{2, 0}, Accesses: []Access{{Handle: h, Mode: R}}})
	c := g.Submit(TaskSpec{Kind: "c", Cost: []float64{0, 0}, Accesses: []Access{{Handle: k, Mode: R}}}) // no implementation
	d := g.Submit(TaskSpec{Kind: "d", Cost: []float64{8, 16}, Accesses: []Access{{Handle: h, Mode: RW}}})
	e := g.Submit(TaskSpec{Kind: "e", Cost: []float64{32}})
	g.Declare(c, e)
	want := map[*Task]float64{a: 1 + 32, b: 2 + 8, c: 0 + 32, d: 8, e: 32}
	bl := g.BottomLevels()
	if len(bl) != len(g.Tasks) {
		t.Fatalf("%d bottom levels for %d tasks", len(bl), len(g.Tasks))
	}
	for task, w := range want {
		if bl[task.ID] != w {
			t.Errorf("bottom level of %s = %v, want %v", task.Kind(), bl[task.ID], w)
		}
	}
	if got, want := g.CriticalPathTime(), 33.0; got != want {
		t.Errorf("critical path time = %v, want %v (the largest bottom level)", got, want)
	}
	if got, want := g.SerialTime(), 1+2+0+8+32.0; got != want {
		t.Errorf("serial time = %v, want %v", got, want)
	}
	if got := NewGraph().BottomLevels(); len(got) != 0 {
		t.Errorf("empty graph has bottom levels %v", got)
	}
}
