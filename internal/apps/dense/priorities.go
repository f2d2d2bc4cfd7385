package dense

import "multiprio/internal/runtime"

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
	for i, bl := range g.BottomLevels() {
		g.Tasks[i].Priority = int(bl * 1e6)
	}
}
