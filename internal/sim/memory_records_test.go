package sim

import (
	"slices"
	"testing"

	"multiprio/internal/fault"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/trace"
)

// mmHarness drives the memory manager directly, one event batch at a
// time, on a machine of one CPU worker (RAM) and two GPUs with a memory
// node each. Every worker is busy with a kernel that never ends, so the
// tasks whose acquire completed queue up in wk.staged, in completion
// order, where the tests read them.
type mmHarness struct {
	t     *testing.T
	eng   *simulation
	tasks map[*runtime.Task]platform.MemID // acquired, to release at the end
}

const (
	ram  = platform.MemRAM
	gpu0 = platform.MemID(1)
	gpu1 = platform.MemID(2)
)

func newMMHarness(t *testing.T, gpuMem int64, g *runtime.Graph) *mmHarness {
	t.Helper()
	m, err := platform.NewHeteroNode("records", 3, 10, 2, 100, gpuMem, 1e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var cfg runtime.RunConfig
	fr, err := cfg.Begin("sim", m, g, eager.New(), perfmodel.Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	eng := &simulation{RunFrame: fr, machine: m, graph: g}
	eng.cfg.CollectMemEvents = true
	eng.mm = newMemoryManager(eng, g)
	eng.workers = make([]simWorker, len(m.Units))
	for i, u := range m.Units {
		eng.workers[i] = simWorker{
			info:      runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem},
			unit:      u,
			computing: eng.Popped(runtime.NewGraph().Submit(runtime.TaskSpec{Kind: "endless"}), platform.UnitID(i)),
		}
	}
	eng.held = make([]held, len(m.Units)+1)
	return &mmHarness{t: t, eng: eng, tasks: map[*runtime.Task]platform.MemID{}}
}

func (h *mmHarness) worker(mem platform.MemID) *simWorker {
	for i := range h.eng.workers {
		if h.eng.workers[i].info.Mem == mem {
			return &h.eng.workers[i]
		}
	}
	h.t.Fatalf("no worker on mem %d", mem)
	return nil
}

// acquire stages an attempt of task on the worker of mem and reports
// whether its data was already in place.
func (h *mmHarness) acquire(task *runtime.Task, mem platform.MemID) bool {
	h.tasks[task] = mem
	a := h.eng.Popped(task, h.worker(mem).info.ID)
	h.eng.held = append(h.eng.held, held{stage: fetching, since: h.eng.now})
	return h.eng.mm.acquire(a, mem) < 0
}

// step dispatches the next same-timestamp batch of events.
func (h *mmHarness) step() bool {
	eng := h.eng
	if eng.pq.len() == 0 {
		return false
	}
	eng.batch = eng.pq.popBatch(eng.batch[:0])
	eng.now = eng.batch[0].at
	for _, e := range eng.batch {
		eng.dispatch(e)
	}
	return true
}

// staged returns the kinds of the tasks staged on mem's worker, in order.
func (h *mmHarness) staged(mem platform.MemID) []string {
	var kinds []string
	for _, a := range h.worker(mem).staged {
		kinds = append(kinds, h.eng.Task(a).Kind())
	}
	return kinds
}

func (h *mmHarness) wantStaged(mem platform.MemID, want ...string) {
	h.t.Helper()
	if got := h.staged(mem); !slices.Equal(got, want) {
		h.t.Errorf("staged on mem %d: %v, want %v", mem, got, want)
	}
}

// parked returns the kinds of the waiters parked on the in-flight
// transfer towards (handle, mem), in arrival order.
func (h *mmHarness) parked(d *runtime.DataHandle, mem platform.MemID) []waiterKind {
	h.t.Helper()
	mm := h.eng.mm
	r := mm.repl(d.ID, mem)
	if r.state != replFetching {
		h.t.Fatalf("handle %q on mem %d is not fetching", d.Name, mem)
	}
	var kinds []waiterKind
	for w := mm.xfers.recs[r.xfer].wHead; w >= 0; w = mm.waiters.recs[w].next {
		kinds = append(kinds, mm.waiters.recs[w].kind)
	}
	return kinds
}

func (h *mmHarness) liveXfers() int { return len(h.eng.mm.xfers.recs) - len(h.eng.mm.xfers.free) }

// finish drains the queue, releases every acquired task and checks the
// manager's invariants, the record slabs' emptiness included.
func (h *mmHarness) finish() {
	h.t.Helper()
	for h.step() {
	}
	for task, mem := range h.tasks {
		h.eng.mm.release(task, mem)
	}
	checkMemoryInvariants(h.t, h.eng)
}

func task(g *runtime.Graph, kind string, acc ...runtime.Access) *runtime.Task {
	return g.Submit(runtime.TaskSpec{Kind: kind, Cost: []float64{1, 1}, Accesses: acc})
}

func read(d *runtime.DataHandle) runtime.Access  { return runtime.Access{Handle: d, Mode: runtime.R} }
func write(d *runtime.DataHandle) runtime.Access { return runtime.Access{Handle: d, Mode: runtime.W} }

// Two acquires join one in-flight fetch: one transfer, two join
// records, and each task stages when the last of its own needs lands.
func TestRecordsTwoAcquiresJoinOneFetch(t *testing.T) {
	g := runtime.NewGraph()
	x, y := g.NewData("x", 1e6), g.NewData("y", 1e6)
	both, one := task(g, "both", read(x), read(y)), task(g, "one", read(x))
	h := newMMHarness(t, platform.GiB, g)
	if h.acquire(both, gpu0) || h.acquire(one, gpu0) {
		t.Fatal("acquire reported resident data on an empty GPU")
	}
	if n := len(h.eng.mm.xferLog.Fold()); n != 2 || h.liveXfers() != 2 {
		t.Fatalf("%d transfers issued, %d records live, want 2 and 2 (x shared, y)", n, h.liveXfers())
	}
	if got := h.parked(x, gpu0); !slices.Equal(got, []waiterKind{wJoin, wJoin}) {
		t.Fatalf("parked on x: %v, want two joins", got)
	}
	h.step() // x lands: "one" is complete, "both" still waits for y
	h.wantStaged(gpu0, "one")
	h.step()
	h.wantStaged(gpu0, "one", "both")
	h.finish()
}

// A write lands while a prefetch is in flight: the payload is dropped on
// arrival and the reader parked on it is re-fetched the fresh value.
func TestRecordsWriteMidFlightRefetchesWaiters(t *testing.T) {
	g := runtime.NewGraph()
	x := g.NewData("x", 1e6)
	writer := task(g, "writer", runtime.Access{Handle: x, Mode: runtime.RW})
	reader := task(g, "reader", read(x))
	h := newMMHarness(t, platform.GiB, g)
	mm := h.eng.mm
	if !h.acquire(writer, ram) {
		t.Fatal("x is not resident at home")
	}
	mm.prefetch(reader, gpu0)
	mm.release(writer, ram) // generation 1: the prefetch now carries generation 0
	delete(h.tasks, writer)
	if h.acquire(reader, gpu0) {
		t.Fatal("acquire did not wait for the in-flight prefetch")
	}
	h.step()
	h.wantStaged(gpu0)
	if got := h.parked(x, gpu0); !slices.Equal(got, []waiterKind{wJoin}) {
		t.Fatalf("after the stale drop, parked on the re-fetch: %v, want the reader's join", got)
	}
	h.step()
	h.wantStaged(gpu0, "reader")
	xs := h.eng.mm.xferLog.Fold()
	if len(xs) != 2 || !xs[0].Prefetch || xs[1].Prefetch {
		t.Errorf("transfers %+v, want a prefetch then a demand re-fetch", xs)
	}
	frees := 0
	for _, e := range h.eng.mm.eventLog.Fold() {
		if e.Kind == trace.MemFree && e.Mem == gpu0 {
			frees++
		}
	}
	if frees != 1 {
		t.Errorf("%d frees on the GPU, want 1 (the stale payload)", frees)
	}
	h.finish()
}

// A dirty sole copy is evicted; while its write-back is in flight, a
// reader on RAM joins it and a reader on the other GPU — no valid copy
// anywhere — chains a re-fetch behind it.
func TestRecordsWritebackChasedByReaders(t *testing.T) {
	g := runtime.NewGraph()
	x, y := g.NewData("x", 2*platform.MiB), g.NewData("y", 2*platform.MiB)
	producer := task(g, "producer", write(x))
	evictor := task(g, "evictor", read(y))
	far, host := task(g, "far", read(x)), task(g, "host", read(x))
	h := newMMHarness(t, 3*platform.MiB, g)
	if !h.acquire(producer, gpu0) {
		t.Fatal("a write-only access waited for data")
	}
	h.eng.mm.release(producer, gpu0)
	delete(h.tasks, producer)
	if h.acquire(evictor, gpu0) || h.acquire(far, gpu1) || h.acquire(host, ram) {
		t.Fatal("acquire reported data that is in flight or absent as resident")
	}
	if got := h.parked(x, ram); !slices.Equal(got, []waiterKind{wRefetch, wJoin}) {
		t.Fatalf("parked on the write-back: %v, want the re-fetch then the join", got)
	}
	h.finish()
	h.wantStaged(ram, "host")
	h.wantStaged(gpu1, "far")
	h.wantStaged(gpu0, "evictor")
	var routes [][2]platform.MemID
	for _, xf := range h.eng.mm.xferLog.Fold() {
		if xf.Handle == x.ID {
			routes = append(routes, [2]platform.MemID{xf.Src, xf.Dst})
			if xf.Writeback != (xf.Dst == ram) {
				t.Errorf("transfer %+v: write-back flag wrong", xf)
			}
		}
	}
	if want := [][2]platform.MemID{{gpu0, ram}, {ram, gpu1}}; !slices.Equal(routes, want) {
		t.Errorf("x moved along %v, want %v", routes, want)
	}
}

// loseNode finds a sole valid copy whose transfer to RAM is already in
// flight: the drop is deferred behind that transfer.
func TestRecordsLoseNodeDefersDropBehindRAMFetch(t *testing.T) {
	g := runtime.NewGraph()
	x := g.NewData("x", 1e6)
	producer, host := task(g, "producer", write(x)), task(g, "host", read(x))
	h := newMMHarness(t, platform.GiB, g)
	mm := h.eng.mm
	h.acquire(producer, gpu0)
	mm.release(producer, gpu0)
	delete(h.tasks, producer)
	if h.acquire(host, ram) {
		t.Fatal("RAM was invalidated by the write; acquire cannot be immediate")
	}
	if lost := mm.loseNode(gpu0); lost != 1 {
		t.Fatalf("loseNode dropped %d replicas, want 1", lost)
	}
	if got := h.parked(x, ram); !slices.Equal(got, []waiterKind{wJoin, wDrop}) {
		t.Fatalf("parked on the RAM fetch: %v, want the join then the deferred drop", got)
	}
	if mm.repl(x.ID, gpu0).state != replValid {
		t.Fatal("the source replica was dropped before its payload reached RAM")
	}
	h.finish()
	h.wantStaged(ram, "host")
	if mm.repl(x.ID, gpu0).state != replInvalid || mm.used[gpu0] != 0 {
		t.Errorf("lost node still holds x: state %d, %d bytes", mm.repl(x.ID, gpu0).state, mm.used[gpu0])
	}
}

// A transfer that fails in flight is re-issued on the same record, its
// waiters still parked.
func TestRecordsFailedTransferKeepsWaiters(t *testing.T) {
	g := runtime.NewGraph()
	x := g.NewData("x", 1e6) // 1 ms on the link, failing while it starts before 0.5 ms
	a, b := task(g, "a", read(x)), task(g, "b", read(x))
	h := newMMHarness(t, platform.GiB, g)
	h.eng.Plan = &fault.Plan{Events: []fault.Event{
		{Kind: fault.FailTransfer, Src: ram, Dst: gpu0, At: 0, Until: 0.0005},
	}}
	h.acquire(a, gpu0)
	h.acquire(b, gpu0)
	rec := h.eng.mm.repl(x.ID, gpu0).xfer
	h.step()
	h.wantStaged(gpu0)
	if got := h.eng.mm.repl(x.ID, gpu0).xfer; got != rec || h.liveXfers() != 1 {
		t.Fatalf("re-issue on record %d with %d live, want the same record %d alone", got, h.liveXfers(), rec)
	}
	if got := h.parked(x, gpu0); !slices.Equal(got, []waiterKind{wJoin, wJoin}) {
		t.Fatalf("parked across the failure: %v, want both joins", got)
	}
	h.step()
	h.wantStaged(gpu0, "a", "b")
	xs := h.eng.mm.xferLog.Fold()
	if len(xs) != 2 || !xs[0].Failed || xs[1].Failed || h.eng.Faults.TransferFailures != 1 {
		t.Errorf("transfers %+v with %d failures counted, want one failed then one good", xs, h.eng.Faults.TransferFailures)
	}
	h.finish()
}
