package core

import (
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// mapLocator marks specific (handle, mem) pairs of g as resident.
type mapLocator struct {
	g        *runtime.Graph
	resident map[[2]int64]bool // {handleID, mem} -> resident
}

func (l *mapLocator) Resident(h int32, mem platform.MemID) (int64, bool) {
	return l.g.Handles[h].Bytes, l.resident[[2]int64{int64(h), int64(mem)}]
}
func (l *mapLocator) TransferEstimate(h int32, mem platform.MemID) float64 {
	if _, ok := l.Resident(h, mem); ok {
		return 0
	}
	return 1
}

func TestLocalityAwarePopPrefersResidentData(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	loc := &mapLocator{g: g, resident: make(map[[2]int64]bool)}

	hRemote := g.NewData("remote", 100)
	hLocal := g.NewData("local", 100)
	// Both tasks are GPU-best with identical scores.
	far := g.Submit(runtime.TaskSpec{Kind: "far", Cost: []float64{4, 1},
		Accesses: []runtime.Access{{Handle: hRemote, Mode: runtime.R}}})
	near := g.Submit(runtime.TaskSpec{Kind: "near", Cost: []float64{4, 1},
		Accesses: []runtime.Access{{Handle: hLocal, Mode: runtime.R}}})
	loc.resident[[2]int64{hLocal.ID, 1}] = true // hLocal already on the GPU node

	s, env := newSched(m, g, Defaults())
	env.Locator = loc
	s.Push(far)
	s.Push(near)

	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != near {
		t.Errorf("Pop = %s, want the task with resident data", got.Kind())
	}
}

func TestLocalityDisabledTakesHead(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	loc := &mapLocator{g: g, resident: make(map[[2]int64]bool)}
	cfg := Defaults()
	cfg.DisableLocality = true

	hLocal := g.NewData("local", 100)
	// far has a strictly higher gain (bigger GPU advantage), near has
	// resident data. With locality off the head (far) must win.
	far := g.Submit(runtime.TaskSpec{Kind: "far", Cost: []float64{10, 1}})
	near := g.Submit(runtime.TaskSpec{Kind: "near", Cost: []float64{4, 1},
		Accesses: []runtime.Access{{Handle: hLocal, Mode: runtime.R}}})
	loc.resident[[2]int64{hLocal.ID, 1}] = true

	s, env := newSched(m, g, cfg)
	env.Locator = loc
	s.Push(far)
	s.Push(near)
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != far {
		t.Errorf("Pop = %s, want heap head with locality disabled", got.Kind())
	}
}

func TestEpsilonBoundsLocalityWindow(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	loc := &mapLocator{g: g, resident: make(map[[2]int64]bool)}
	cfg := Defaults()
	cfg.Epsilon = 0.05 // tight: only near-equal scores are candidates

	hLocal := g.NewData("local", 100)
	// far's gain is far above near's: with a tight ε the local task is
	// outside the candidate window and the head wins despite locality.
	far := g.Submit(runtime.TaskSpec{Kind: "far", Cost: []float64{20, 1}})
	near := g.Submit(runtime.TaskSpec{Kind: "near", Cost: []float64{2, 1.9},
		Accesses: []runtime.Access{{Handle: hLocal, Mode: runtime.R}}})
	loc.resident[[2]int64{hLocal.ID, 1}] = true

	s, env := newSched(m, g, cfg)
	env.Locator = loc
	s.Push(far)
	s.Push(near)
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != far {
		t.Errorf("Pop = %s, want head (local task outside ε window)", got.Kind())
	}
}
