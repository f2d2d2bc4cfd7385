package dense

import (
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// AssignBottomLevelPriorities sets each task's static priority to its
// bottom level: the longest remaining path to a DAG exit, weighted by
// the task's best per-architecture cost. This is the canonical
// expert-style priority (the HEFT upward rank restricted to static
// knowledge) and models CHAMELEON's offline-optimized user priorities,
// which the dmdas scheduler consumes (Section VI-A of the paper:
// "Chameleon ... provides user priorities for these routines, optimized
// by experts offline").
//
// Priorities are scaled to integers (microsecond resolution) because the
// StarPU-style API exposes integer priorities.
func AssignBottomLevelPriorities(g *runtime.Graph) {
	bl := BottomLevels(g)
	for _, t := range g.Tasks {
		t.Priority = int(bl[t.ID] * 1e6)
	}
}

// BottomLevels computes the bottom level (critical path to exit,
// inclusive of the task itself) of every task, keyed by task ID, using
// each task's minimum per-architecture cost as its weight.
func BottomLevels(g *runtime.Graph) map[int64]float64 {
	bl := make(map[int64]float64, len(g.Tasks))
	// Tasks are topologically sorted by ID (STF submission order), so a
	// reverse sweep sees every successor before its predecessors.
	for i := len(g.Tasks) - 1; i >= 0; i-- {
		t := g.Tasks[i]
		best := 0.0
		first := true
		for a := range t.Cost {
			if c, ok := t.BaseCost(platform.ArchID(a)); ok && (first || c < best) {
				best, first = c, false
			}
		}
		maxSucc := 0.0
		for _, s := range t.Succs() {
			if v := bl[int64(s)]; v > maxSucc {
				maxSucc = v
			}
		}
		bl[t.ID] = best + maxSucc
	}
	return bl
}
