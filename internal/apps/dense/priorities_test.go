package dense

import (
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// mapBottomLevels is the sweep this package ran before the kernel moved
// to runtime.Graph.BottomLevels: the same recurrence into a map with an
// entry per task. Kept as the reference the kernel's values must equal bit for
// bit — priorities feed dmdas' queue order, so a last-place difference
// is a different schedule.
func mapBottomLevels(g *runtime.Graph) map[*runtime.Task]float64 {
	bl := make(map[*runtime.Task]float64, len(g.Tasks))
	for i := len(g.Tasks) - 1; i >= 0; i-- {
		t := g.Tasks[i]
		best := 0.0
		first := true
		for a := range t.Cost() {
			if c, ok := t.BaseCost(platform.ArchID(a)); ok && (first || c < best) {
				best, first = c, false
			}
		}
		maxSucc := 0.0
		for _, s := range t.Succs() {
			if v := bl[g.Tasks[s]]; v > maxSucc {
				maxSucc = v
			}
		}
		bl[t] = best + maxSucc
	}
	return bl
}

func TestBottomLevelPrioritiesMatchMapReference(t *testing.T) {
	for name, build := range map[string]func(Params) *runtime.Graph{"cholesky": Cholesky, "lu": LU, "qr": QR} {
		p := params(7, 320)
		p.UserPriorities = true
		g := build(p)
		want := mapBottomLevels(g)
		got := g.BottomLevels()
		if len(got) != len(g.Tasks) {
			t.Fatalf("%s: %d bottom levels for %d tasks", name, len(got), len(g.Tasks))
		}
		for _, task := range g.Tasks {
			if got[task.ID] != want[task] {
				t.Fatalf("%s: task %d bottom level %v, map-based reference %v", name, task.ID, got[task.ID], want[task])
			}
			if task.Priority != int(want[task]*1e6) {
				t.Fatalf("%s: task %d priority %d, reference %d", name, task.ID, task.Priority, int(want[task]*1e6))
			}
		}
	}
}
