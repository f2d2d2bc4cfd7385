package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"multiprio/internal/apps/dense"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// OverheadRow is one scheduler's measured decision cost.
type OverheadRow struct {
	Scheduler string
	// PushNs and PopNs are wall-clock nanoseconds per operation,
	// measured by driving the policy directly (no simulation).
	PushNs float64
	PopNs  float64
}

// OverheadResult quantifies the paper's Section III-B claim that the
// per-memory-node binary heaps keep the scheduling overhead reasonable:
// the real wall-clock cost per PUSH and POP decision of every policy,
// on a Cholesky-shaped ready stream over the Intel-V100 model.
type OverheadResult struct {
	Tasks int
	Rows  []OverheadRow
}

// RunOverhead measures decision costs by replaying a ready-task stream.
func RunOverhead(c *Ctx) (*OverheadResult, error) {
	m, err := PlatformByName("intel-v100", 1)
	if err != nil {
		return nil, err
	}
	tiles := 24
	if c.Scale == Full {
		tiles = 40
	}
	res := &OverheadResult{Tasks: dense.CholeskyTaskCount(tiles)}
	workers := make([]runtime.WorkerInfo, len(m.Units))
	for i, u := range m.Units {
		workers[i] = runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
	}
	ws := []workload{newWorkload("cholesky", m, func() (*runtime.Graph, error) {
		return dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 960, Machine: m, UserPriorities: true}), nil
	})}
	names := stressSchedulers()
	res.Rows, err = grid(c.serial(), ws, len(names), func(_ workload, g *runtime.Graph, i int) (OverheadRow, error) {
		name := names[i]
		s, err := NewScheduler(name)
		if err != nil {
			return OverheadRow{}, err
		}
		s.Init(runtime.NewEnv(m, g))

		// Push the whole ready stream (dependencies ignored: this
		// measures data-structure costs, not scheduling quality).
		start := time.Now()
		for _, t := range g.Tasks {
			s.Push(t)
		}
		pushNs := float64(time.Since(start).Nanoseconds()) / float64(len(g.Tasks))

		start = time.Now()
		popped := 0
		for i := 0; popped < len(g.Tasks); i++ {
			w := workers[i%len(workers)]
			if t := s.Pop(w); t != nil {
				popped++
				s.TaskDone(t, w)
			}
			if i > 50*len(g.Tasks) {
				return OverheadRow{}, fmt.Errorf("%s drained only %d of %d tasks", name, popped, len(g.Tasks))
			}
		}
		popNs := float64(time.Since(start).Nanoseconds()) / float64(len(g.Tasks))
		return OverheadRow{Scheduler: name, PushNs: pushNs, PopNs: popNs}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return res.Rows[i].PushNs+res.Rows[i].PopNs < res.Rows[j].PushNs+res.Rows[j].PopNs
	})
	return res, nil
}

// Print renders the overhead table.
func (r *OverheadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Scheduling overhead: wall-clock cost per decision over %d Cholesky tasks (Intel-V100 model)\n", r.Tasks)
	fmt.Fprintf(w, "%-12s %12s %12s\n", "scheduler", "push ns/task", "pop ns/task")
	rule(w, 40)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %12.0f %12.0f\n", row.Scheduler, row.PushNs, row.PopNs)
	}
	fmt.Fprintln(w, "paper §III-B: the per-memory-node heaps stay cheap because |M| is small")
}
