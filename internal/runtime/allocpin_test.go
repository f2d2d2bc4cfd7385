package runtime

import (
	"math/rand"
	"reflect"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"multiprio/internal/platform"
	"multiprio/internal/race"
)

// ringSched is a FIFO over a buffer allocated once, so that a run's
// allocation count is the engine's alone.
type ringSched struct {
	mu         sync.Mutex
	env        *Env
	buf        []*Task
	head, tail int
}

func (s *ringSched) Name() string  { return "test-ring" }
func (s *ringSched) Init(env *Env) { s.env, s.head, s.tail = env, 0, 0 }
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
	s.env.TryClaim(t)
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
		if _, err := eng.Run(g); err != nil {
			t.Fatal(err)
		}
	})
}

// TestThreadedRunAllocationPin pins what one Run allocates. The run's
// state is one struct with the run core embedded by value and the
// kernel's recover is an open-coded defer, so a run allocates only its
// fixed set-up (17 on this graph: that struct, the env, its run state
// and its clock, the run core's attempt table, the goroutines and the
// channel they are awaited on, and the trace with its span slice
// reserved at final size) and nothing per task.
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

// TestGraphObjectSizes pins the per-object costs of a graph: edges,
// accesses, inference state and scheduler scratch live in graph- and
// policy-owned int32 tables, not in every Task and DataHandle (216 and
// 128 bytes when they held pointer edge lists, a dedup stamp and the
// policy's scratch; a handle was 96 while it carried its inference
// state, a commute mutex and a payload), and a run's claims, dependency
// counts and execution record live in its RunState (a Task was 160 bytes
// while it held them, 120 while it held a []Access), and its kind, cost
// row and kernel live in the graph's tables (104 bytes while it held a
// string, a slice and a func). A stored access is a Use: a handle ID
// and a mode, no pointer (an Access is 16 bytes). The graph is the one
// pointer a Task holds, and a Use holds none.
func TestGraphObjectSizes(t *testing.T) {
	if n := unsafe.Sizeof(Task{}); n > 64 {
		t.Errorf("Task is %d bytes, want <= 64", n)
	}
	if got := pointerFields(reflect.TypeOf(Task{})); !slices.Equal(got, []string{"g"}) {
		t.Errorf("Task fields holding pointers: %v, want [g]", got)
	}
	if got := pointerFields(reflect.TypeOf(Use{})); len(got) != 0 {
		t.Errorf("Use fields holding pointers: %v, want none", got)
	}
	if n := unsafe.Sizeof(DataHandle{}); n > 40 {
		t.Errorf("DataHandle is %d bytes, want <= 40", n)
	}
	if n := unsafe.Sizeof(Use{}); n != 8 {
		t.Errorf("Use is %d bytes, want 8", n)
	}
}

// pointerFields returns the fields of struct type st whose values hold
// a pointer the collector traces, at any depth.
func pointerFields(st reflect.Type) []string {
	var out []string
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); holdsPointer(f.Type) {
			out = append(out, f.Name)
		}
	}
	return out
}

// holdsPointer reports whether a value of type t contains a pointer.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	default: // pointers, strings, slices, maps, funcs, channels, interfaces
		return true
	}
}

// layeredGraph builds a graph of the randdag generator's shape through a
// Batch: layers of width 50, each task writing its own handle and reading
// each handle of the layer above with probability 1/4, commuting on one
// accumulator with probability commute.
func layeredGraph(layers int, commute float64, seed int64) *Graph {
	const width = 50
	rng := rand.New(rand.NewSource(seed))
	n := layers * width
	g := NewGraphWithCapacity(n, n+1)
	b := g.NewBatch(n)
	acc := g.NewData("acc", 64)
	outs := make([]*DataHandle, n)
	for i := range outs {
		outs[i] = b.NewData(int64(4096+rng.Intn(1<<20)), "d%d.%d", i/width, i%width)
	}
	var scratch []Access
	for i := range outs {
		scratch = append(scratch[:0], Access{Handle: outs[i], Mode: W})
		if l := i / width; l > 0 {
			for _, h := range outs[(l-1)*width : l*width] {
				if rng.Intn(4) == 0 {
					scratch = append(scratch, Access{Handle: h, Mode: R})
				}
			}
		}
		if rng.Float64() < commute {
			scratch = append(scratch, Access{Handle: acc, Mode: Commute})
		}
		cost := b.Cost(2)
		cost[platform.ArchCPU] = 1e-3
		b.Add(TaskSpec{Kind: "k", Cost: cost, Accesses: scratch})
	}
	b.Submit()
	return g
}

// BenchmarkValidatedGraphGC times one full collection with a validated
// 10^5-task layered graph live: the marking a graph costs every cycle
// of whatever runs beside it. Pointers in the graph (tasks, handles,
// cost rows) are what the collector traces; its int32 tables are not.
func BenchmarkValidatedGraphGC(b *testing.B) {
	g := layeredGraph(2000, 0, 42)
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	goruntime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		goruntime.GC()
	}
	b.StopTimer()
	goruntime.KeepAlive(g)
}

// requireNoSubmissionState fails unless g holds none of the inference
// state: no per-handle writer, reader or commuter list, no stamps.
func requireNoSubmissionState(t *testing.T, what string, g *Graph) {
	t.Helper()
	if s := g.sub; !g.validated || s.handles != nil || s.lists != nil || s.tasks != nil {
		t.Fatalf("%s: validated %v, %d handle states, %d list entries, %d stamps left",
			what, g.validated, len(s.handles), len(s.lists), len(s.tasks))
	}
}

// TestValidateDropsSubmissionState pins the open/validated split: Validate
// leaves the graph only what a run reads, a later Submit rebuilds the
// state by replay, and the next Validate drops it again.
func TestValidateDropsSubmissionState(t *testing.T) {
	g := layeredGraph(4, 0.3, 1)
	if g.validated || len(g.sub.handles) != len(g.Handles) || len(g.sub.tasks) != len(g.Tasks) {
		t.Fatalf("an open graph: validated %v, %d handle states for %d handles, %d stamps for %d tasks",
			g.validated, len(g.sub.handles), len(g.Handles), len(g.sub.tasks), len(g.Tasks))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	requireNoSubmissionState(t, "after Validate", g)
	g.Submit(cpuTask("late", 1e-6, Access{Handle: g.Handles[1], Mode: RW}))
	if g.validated || len(g.sub.handles) != len(g.Handles) || len(g.sub.tasks) != len(g.Tasks) {
		t.Fatalf("a regrown graph has no rebuilt state")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	requireNoSubmissionState(t, "after the second Validate", g)
}

// TestValidatedGraphFootprint pins what a validated randdag-shaped graph
// of 2·10^4 tasks keeps alive after a collection: tasks, handles, the
// use table, the cost-row table and the two CSRs. The inference state,
// the reader lists and the stamps are gone with Validate, and a run's
// state is its own: 368 bytes per task were measured on x86-64 with
// go1.24, 408 while every task held its kind, cost row and kernel (a
// 104-byte Task), 582 while every task held a []Access of 16-byte
// entries from an arena, 622 while every task carried a run's state and
// 732 while the graph kept the inference state too. The ceiling is that
// measurement plus 5 %.
func TestValidatedGraphFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const layers = 400
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	g := layeredGraph(layers, 0, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	perTask := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(g.Tasks))
	goruntime.KeepAlive(g)
	t.Logf("%.1f bytes per task retained", perTask)
	if perTask > 386 {
		t.Errorf("a validated graph retains %.1f bytes per task, want <= 386", perTask)
	}
}
