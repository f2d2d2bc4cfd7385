package runtime

import (
	"sync"
	"testing"
	"unsafe"

	"multiprio/internal/platform"
)

// ringSched is a FIFO over a buffer allocated once, so that a run's
// allocation count is the engine's alone.
type ringSched struct {
	mu         sync.Mutex
	buf        []*Task
	head, tail int
}

func (s *ringSched) Name() string { return "test-ring" }
func (s *ringSched) Init(*Env)    { s.head, s.tail = 0, 0 }
func (s *ringSched) Push(t *Task) {
	s.mu.Lock()
	s.buf[s.tail] = t
	s.tail++
	s.mu.Unlock()
}
func (s *ringSched) Pop(WorkerInfo) *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == s.tail {
		return nil
	}
	t := s.buf[s.head]
	s.head++
	t.TryClaim()
	return t
}
func (s *ringSched) TaskDone(*Task, WorkerInfo) {}

// pinGraph is the fixed graph of the allocation pin: layers of width 4,
// every task rewriting its column's handle (so each depends on the task
// above it), with a no-op kernel so the kernel call path is exercised.
func pinGraph(layers int) *Graph {
	g := NewGraph()
	var cols [4]*DataHandle
	for i := range cols {
		cols[i] = g.NewData("c", 8)
	}
	for l := 0; l < layers; l++ {
		for _, h := range cols {
			task := cpuTask("k", 1e-6, Access{Handle: h, Mode: RW})
			task.Run = func(WorkerInfo) {}
			g.Submit(task)
		}
	}
	return g
}

func threadedRunAllocs(t *testing.T, layers int) float64 {
	g := pinGraph(layers)
	eng, err := NewThreadedEngine(platform.CPUOnly(2), &ringSched{buf: make([]*Task, len(g.Tasks))})
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		g.ResetRun()
		if _, err := eng.Run(g); err != nil {
			t.Fatal(err)
		}
	})
}

// TestThreadedRunAllocationPin pins what one Run allocates. The run's
// state is one struct with the run core embedded by value and the
// kernel's recover is an open-coded defer, so a run allocates only its
// fixed set-up (16 on this graph: that struct, the env and its clock,
// the run core's attempt table, the goroutines and the channel they are
// awaited on, and the trace with its span slice reserved at final size)
// and nothing per task.
func TestThreadedRunAllocationPin(t *testing.T) {
	small, large := threadedRunAllocs(t, 64), threadedRunAllocs(t, 256)
	t.Logf("allocs per run: %v at 256 tasks, %v at 1024 tasks", small, large)
	if small > 20 {
		t.Errorf("a 256-task run allocates %v times, want <= 20", small)
	}
	if large-small > 1 {
		t.Errorf("768 more tasks cost %v more allocations, want none (the trace is presized)", large-small)
	}
}

// TestGraphObjectSizes pins the two per-object costs of a graph: edges,
// inference state and scheduler scratch live in graph- and policy-owned
// int32 tables, not in every Task and DataHandle (216 and 128 bytes when
// they held pointer edge lists, a dedup stamp and the policy's scratch).
func TestGraphObjectSizes(t *testing.T) {
	if n := unsafe.Sizeof(Task{}); n > 160 {
		t.Errorf("Task is %d bytes, want <= 160", n)
	}
	if n := unsafe.Sizeof(DataHandle{}); n > 96 {
		t.Errorf("DataHandle is %d bytes, want <= 96", n)
	}
}
