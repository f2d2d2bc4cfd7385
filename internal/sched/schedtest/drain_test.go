package schedtest

import (
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
)

// TestPolicyDrainsReadyStream drives each policy directly, with no
// engine: every task of a Cholesky-24 pushed at once (dependencies
// ignored), then round-robin Pop and TaskDone over the Intel-V100
// workers. Each task must come out exactly once within 50 calls per
// task, so a policy that strands, loses or repeats a task held in its
// queues fails here, whatever order it decides in.
func TestPolicyDrainsReadyStream(t *testing.T) {
	m := platform.IntelV100(platform.Config{GPUStreams: 1})
	g := dense.Cholesky(dense.Params{Tiles: 24, TileSize: 960, Machine: m, UserPriorities: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	workers := make([]runtime.WorkerInfo, len(m.Units))
	for i, u := range m.Units {
		workers[i] = runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
	}
	n := len(g.Tasks)
	for _, name := range []string{"multiprio", "dmdas", "heteroprio", "lws", "prio", "eager"} {
		t.Run(name, func(t *testing.T) {
			s, err := registry.New(name, registry.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.Init(runtime.NewEnv(m, g))
			for _, task := range g.Tasks {
				s.Push(task)
			}
			seen := make([]bool, n)
			popped := 0
			for i := 0; popped < n; i++ {
				if i > 50*n {
					t.Fatalf("drained only %d of %d tasks in %d calls", popped, n, i)
				}
				w := workers[i%len(workers)]
				task := s.Pop(w)
				if task == nil {
					continue
				}
				if seen[task.ID] {
					t.Fatalf("task %d popped twice", task.ID)
				}
				seen[task.ID] = true
				popped++
				s.TaskDone(task, w)
			}
			for i := range workers {
				if task := s.Pop(workers[i]); task != nil {
					t.Fatalf("task %d popped after all %d were drained", task.ID, n)
				}
			}
		})
	}
}
