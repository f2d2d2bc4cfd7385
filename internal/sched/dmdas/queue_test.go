package dmdas

import (
	"math/rand"
	"sort"
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// modelEntry and modelQueue are the queue this package had before the
// deque: one sorted slice per worker, append + copy to insert, append
// over the gap to remove. The deque must hold the same tasks in the same
// order and hand out the same task on every Pop.
type modelEntry struct {
	t   *runtime.Task
	est float64
}

type modelQueue []modelEntry

func (q modelQueue) push(v Variant, t *runtime.Task, est float64) modelQueue {
	e := modelEntry{t: t, est: est}
	q = append(q, e)
	if v == DMDAS {
		i := sort.Search(len(q)-1, func(i int) bool { return q[i].t.Priority < t.Priority })
		copy(q[i+1:], q[i:])
		q[i] = e
	}
	return q
}

// pop returns the queue without the entry the variant selects, and that
// entry's task and index (nil, -1 on an empty queue).
func (q modelQueue) pop(v Variant, ready func(*runtime.Task) bool) (modelQueue, *runtime.Task, int) {
	if len(q) == 0 {
		return q, nil, -1
	}
	idx := 0
	switch v {
	case DMDAS:
		headPrio := q[0].t.Priority
		for i := 0; i < len(q) && q[i].t.Priority == headPrio; i++ {
			if ready(q[i].t) {
				idx = i
				break
			}
		}
	case DMDAR:
		for i := range q {
			if ready(q[i].t) {
				idx = i
				break
			}
		}
	}
	t := q[idx].t
	return append(q[:idx], q[idx+1:]...), t, idx
}

// driveQueue runs one push/pop script against a Sched of variant v and
// the model. Two bytes per step: an even first byte pops, an odd one
// pushes a GPU-only task (so every task maps to worker 2) of priority
// second%7-3 that is data-ready on the GPU when second&8 is set — which
// is what moves the variant's Pop off the queue's front.
func driveQueue(t *testing.T, v Variant, script []byte) {
	t.Helper()
	m := hetero()
	g := runtime.NewGraph()
	hRemote := g.NewData("remote", 100)
	hLocal := g.NewData("local", 100)
	// The script's tasks are submitted first, so the run's Env covers
	// them; the pushes take them in order.
	for step := 0; step+1 < len(script); step += 2 {
		if op, arg := script[step], script[step+1]; op&1 == 1 {
			h := hRemote
			if arg&8 != 0 {
				h = hLocal
			}
			g.Submit(runtime.TaskSpec{Kind: "k", Priority: int(arg%7) - 3, Cost: []float64{0, 1},
				Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}}})
		}
	}
	s := New(v)
	env := runtime.NewEnv(m, g)
	env.Locator = gpuResidentLocator{g}
	s.Init(env)
	ready := func(t *runtime.Task) bool { return t.Uses()[0].Handle == int32(hLocal.ID) }
	w := runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1}

	var ref modelQueue
	pushed := 0
	for step := 0; step+1 < len(script); step += 2 {
		if script[step]&1 == 1 {
			task := g.Tasks[pushed]
			pushed++
			s.Push(task)
			ref = ref.push(v, task, 1)
		} else {
			var want *runtime.Task
			ref, want, _ = ref.pop(v, ready)
			if got := s.Pop(w); got != want {
				t.Fatalf("%v step %d: Pop = %v, the sorted-slice model pops %v", v, step/2, got, want)
			}
		}
		ids := queuedIDs(s, w.ID)
		if len(ids) != len(ref) || len(s.queues[w.ID].live()) != len(ref) {
			t.Fatalf("%v step %d: queue holds %d tasks (live %d), model %d", v, step/2, len(ids), len(s.queues[w.ID].live()), len(ref))
		}
		for i, id := range ids {
			if int64(id) != ref[i].t.ID {
				t.Fatalf("%v step %d: queue[%d] is task %d, model has task %d", v, step/2, i, id, ref[i].t.ID)
			}
		}
	}
	// Whatever is left unwinds the load accounting to zero.
	for s.Pop(w) != nil {
	}
	if s.load[w.ID] != 0 {
		t.Errorf("%v: load %g left on a drained queue", v, s.load[w.ID])
	}
}

// queueScripts are the shapes that reach every branch of insert and
// remove: growth from empty, a FIFO that slides instead of growing, front
// inserts with and without popped space before the head, removals nearer
// either end, and a drain to empty that resets the head.
func queueScripts() map[string][]byte {
	rng := rand.New(rand.NewSource(18))
	random := make([]byte, 4000)
	rng.Read(random)
	pushHeavy := make([]byte, 3000)
	rng.Read(pushHeavy)
	for i := 0; i < len(pushHeavy); i += 2 {
		if i%8 != 0 {
			pushHeavy[i] |= 1
		}
	}
	var fifo []byte
	for i := 0; i < 40; i++ {
		fifo = append(fifo, 1, 3)
	}
	for i := 0; i < 400; i++ {
		fifo = append(fifo, 0, 0, 1, byte(i))
	}
	var rising []byte // each push outranks the queue: always a front insert
	for i := 0; i < 6; i++ {
		rising = append(rising, 1, byte(i))
	}
	rising = append(rising, 0, 0, 0, 0)
	for i := 0; i < 7; i++ {
		rising = append(rising, 1, byte(i), 0, 0, 1, byte(6-i))
	}
	var drain []byte
	for round := 0; round < 5; round++ {
		for i := 0; i < 9; i++ {
			drain = append(drain, 1, byte(i*5+round)|8*byte(i&1))
		}
		for i := 0; i < 11; i++ {
			drain = append(drain, 0, 0)
		}
	}
	return map[string][]byte{
		"random": random, "push-heavy": pushHeavy, "fifo": fifo, "rising": rising, "drain": drain,
		"pop-empty": {0, 0, 0, 0, 1, 1, 0, 0, 0, 0},
	}
}

func TestDmdasQueueMatchesSortedSliceModel(t *testing.T) {
	for name, script := range queueScripts() {
		for _, v := range []Variant{DM, DMDA, DMDAS, DMDAR} {
			t.Run(name+"/"+v.String(), func(t *testing.T) { driveQueue(t, v, script) })
		}
	}
}

func FuzzDmdasQueue(f *testing.F) {
	// Short scripts, one variant per input: the fuzzer minimizes every
	// input that reaches new coverage, and on kilobyte scripts that is
	// all a 10 s run would do.
	const maxScript = 256
	for _, script := range queueScripts() {
		for v := DM; v <= DMDAR; v++ {
			f.Add(uint8(v), script[:min(len(script), maxScript)])
		}
	}
	f.Fuzz(func(t *testing.T, v uint8, script []byte) {
		driveQueue(t, Variant(v%4), script[:min(len(script), maxScript)])
	})
}

// TestQueueIndexedOps drives insert and remove at arbitrary indices —
// wider than any variant's Push and Pop reach — against a plain slice.
func TestQueueIndexedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q queue
	var ref []entry
	for step := 0; step < 20000; step++ {
		// Phases of growth and of shrinkage, so the buffer fills, slides,
		// grows and empties many times over.
		inserts := 2 // of 5 operations; 3 while growing
		if step/500%2 == 0 {
			inserts = 3
		}
		if len(ref) == 0 || rng.Intn(5) < inserts {
			i, e := rng.Intn(len(ref)+1), entry{prio: step, est: float64(step), id: int32(step)}
			q.insert(i, e)
			ref = append(ref, entry{})
			copy(ref[i+1:], ref[i:])
			ref[i] = e
		} else {
			i := rng.Intn(len(ref))
			if rng.Intn(2) == 0 {
				i = 0
			}
			q.remove(i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		live := q.live()
		if len(live) != len(ref) {
			t.Fatalf("step %d: %d entries, want %d", step, len(live), len(ref))
		}
		for i := range live {
			if live[i] != ref[i] {
				t.Fatalf("step %d: entry %d is %+v, want %+v", step, i, live[i], ref[i])
			}
		}
		if len(ref) == 0 && q.head != 0 {
			t.Fatalf("step %d: empty queue keeps head %d", step, q.head)
		}
	}
}

// TestWorkerDownRepushesInQueueOrder pins the order in which a killed
// worker's mapped tasks are mapped again: queue order, front first — it
// decides which survivor each lands on.
func TestWorkerDownRepushesInQueueOrder(t *testing.T) {
	m := hetero()
	g := runtime.NewGraph()
	// GPU-favourable but CPU-runnable; the first pops so the queue has a
	// head index above zero when the worker dies.
	for _, prio := range []int{9, 5, 5, 7, 5, 5} {
		g.Submit(runtime.TaskSpec{Kind: "k", Priority: prio, Cost: []float64{100, 1}})
	}
	tasks := g.Tasks
	s := New(DMDAS)
	env := runtime.NewEnv(m, g)
	s.Init(env)
	for _, task := range tasks {
		s.Push(task)
	}
	gpu := runtime.WorkerInfo{ID: 2, Arch: 1, Mem: 1}
	if got := s.Pop(gpu); got != tasks[0] {
		t.Fatalf("pop = task %d, want the priority-9 head", got.ID)
	}
	env.MarkWorkerDown(gpu.ID)
	s.WorkerDown(gpu)
	if len(s.queues[gpu.ID].live()) != 0 {
		t.Fatalf("dead worker still holds %d tasks", len(s.queues[gpu.ID].live()))
	}
	// The queue held tasks 3 (priority 7), 1, 2, 4, 5: re-pushed in that
	// order they alternate over the two equal CPUs as the loads leapfrog,
	// and the equal priorities keep push order within each queue.
	want := [][]int64{{tasks[3].ID, tasks[2].ID, tasks[5].ID}, {tasks[1].ID, tasks[4].ID}}
	for w, ids := range want {
		got := queuedIDs(s, platform.UnitID(w))
		if len(got) != len(ids) {
			t.Fatalf("cpu%d holds tasks %v, want %v", w, got, ids)
		}
		for i := range ids {
			if int64(got[i]) != ids[i] {
				t.Fatalf("cpu%d holds tasks %v, want %v", w, got, ids)
			}
		}
	}
}
