package runtime

import (
	"math"
	"sync/atomic"

	"multiprio/internal/obs"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
)

// Scheduler is the contract between the execution engines and a
// scheduling policy, mirroring StarPU's push/pop custom-policy hooks
// (Section IV-A of the paper).
//
// Implementations must be safe for concurrent use: the threaded engine
// calls Pop from many worker goroutines at once, and Push/TaskDone from
// whichever goroutine completes a predecessor — one at a time, under its
// run lock, but concurrently with those Pops.
type Scheduler interface {
	// Name returns the policy name used in reports ("multiprio",
	// "dmdas", ...).
	Name() string
	// Init binds the scheduler to an execution environment. It is
	// called once before any Push/Pop and resets all internal state.
	Init(env *Env)
	// Push offers a task whose dependencies are all released.
	Push(t *Task)
	// Pop requests a task for an idle worker. Returning nil means the
	// policy has no eligible task for this worker right now; the engine
	// will call again after the next Push or completion. The scheduler
	// must return claimed tasks only (Env.TryClaim succeeded). While no
	// pushed task is still un-popped, Pop must be a no-op returning nil:
	// engines count what they pushed and may skip such calls, so a policy
	// must not depend on them (to advance a cursor, say). Wrappers
	// inherit the clause: what they hold was pushed into them.
	Pop(w WorkerInfo) *Task
	// TaskDone notifies the scheduler that the task finished on w.
	TaskDone(t *Task, w WorkerInfo)
}

// DataLocator exposes the engine's view of data placement to schedulers,
// for the locality heuristics (LS_SDH², dmda transfer estimates). A
// handle is named by its ID in the run's graph, as Task.Uses names it.
type DataLocator interface {
	// Resident returns the size of handle h and whether a valid replica
	// of it exists on mem: the two facts a locality score reads per
	// access, in one call.
	Resident(h int32, mem platform.MemID) (bytes int64, ok bool)
	// TransferEstimate returns the estimated time to make h valid on
	// mem (0 when already resident). It ignores queueing delays.
	TransferEstimate(h int32, mem platform.MemID) float64
}

// homeLocator is the trivial locator of engines without distributed
// memory (the threaded engine): every handle stays on its home node.
type homeLocator struct{ g *Graph }

func (l homeLocator) Resident(h int32, mem platform.MemID) (int64, bool) {
	d := l.g.Handles[h]
	return d.Bytes, mem == d.Home
}
func (homeLocator) TransferEstimate(h int32, mem platform.MemID) float64 { return 0 }

// Env is the execution environment handed to schedulers at Init.
type Env struct {
	Machine *platform.Machine
	Graph   *Graph
	Model   perfmodel.Estimator
	Locator DataLocator
	// Now returns the current time in seconds (virtual or wall-clock).
	Now func() float64
	// Prefetch asks the engine to stage the task's data on mem in the
	// background. Engines without transfers leave it nil.
	Prefetch func(t *Task, mem platform.MemID)
	// Probe receives scheduler decision events and counter samples
	// (internal/obs). Nil disables observation; schedulers must guard
	// every probe call site with a nil check so the disabled path is
	// free, and must never let observation influence a decision.
	Probe obs.Probe
	// Seq returns the engine's last-assigned linearization sequence
	// number, for stamping probe events against trace.Span.StartSeq.
	// It is strictly read-only: calling it never advances the
	// sequencer. Engines without a sequencer return 0.
	Seq func() int64

	// live is the fault-time worker view, published copy-on-write so
	// scheduler goroutines read it without locks. It stays nil until
	// the first MarkWorkerDown: fault-free runs never allocate it and
	// every Live* helper falls back to the machine's static counts.
	live atomic.Pointer[liveView]
	// state is the run's per-task state, shared by a cluster's node Envs;
	// unitBase is the run's ID of this Env's unit 0 (NodeEnv).
	state    RunState
	unitBase platform.UnitID
	// nod is the run's Eq. 2 table where another holds it: the run
	// core, which starts a NODReader's fill (RunConfig.Begin), or the
	// parent of a node's Env (NodeEnv). Without one the table is ownNOD.
	nod    *nodTable
	ownNOD nodTable
}

// TryClaim atomically claims t for execution in this run and reports
// whether this call won. Policies may queue a task in several places
// (one queue per memory node, say): the first worker to claim it wins
// and the other copies become stale, dropped lazily.
func (e *Env) TryClaim(t *Task) bool { return e.state[t.ID].claimed.CompareAndSwap(false, true) }

// Claimed reports whether some worker already claimed t in this run.
func (e *Env) Claimed(t *Task) bool { return e.state[t.ID].Claimed() }

// EndAt returns when t's committed attempt ended, 0 until it commits.
func (e *Env) EndAt(t *Task) float64 { return e.state[t.ID].EndAt }

// RanOn returns the unit t's committed attempt ran on, as a unit of
// this Env's machine, and false when it is none of them: on a cluster
// node's Env (NodeEnv), t ran on another node.
func (e *Env) RanOn(t *Task) (platform.UnitID, bool) {
	u := e.state[t.ID].RanOn - e.unitBase
	return u, u >= 0 && int(u) < len(e.Machine.Units)
}

// NodeEnv returns the Env of one node of a cluster run: node is that
// node's own machine, whose unit u is unit base+u of e's. It shares e's
// run state — a claim through either is the one claim — and e's model,
// clock, sequencer, probe and NOD table; the caller gives it a locator
// and a prefetch hook in the node's coordinates.
func (e *Env) NodeEnv(node *platform.Machine, base platform.UnitID) *Env {
	return &Env{
		Machine: node, Graph: e.Graph, Model: e.Model,
		Now: e.Now, Seq: e.Seq, Probe: e.Probe,
		state: e.state, unitBase: base, nod: e.nodTable(),
	}
}

// liveView is an immutable snapshot of which workers are alive.
type liveView struct {
	down   []bool
	byArch []int
	byMem  []int
}

// FaultObserver is implemented by schedulers that keep per-worker or
// per-memory-node state needing repair when fault injection removes a
// worker. Engines call WorkerDown after marking the worker dead in the
// Env, from the event loop (simulator) or the fault controller
// goroutine (threaded engine) — implementations must take their own
// locks, exactly as for Push/Pop.
type FaultObserver interface {
	WorkerDown(w WorkerInfo)
}

// MarkWorkerDown removes unit u from the live-worker view. Engines call
// it when a KillWorker fault applies; schedulers read the view through
// WorkerAlive/LiveWorkersOf/LiveWorkersOn.
func (e *Env) MarkWorkerDown(u platform.UnitID) {
	old := e.live.Load()
	lv := &liveView{
		down:   make([]bool, len(e.Machine.Units)),
		byArch: make([]int, len(e.Machine.Archs)),
		byMem:  make([]int, len(e.Machine.Mems)),
	}
	if old != nil {
		copy(lv.down, old.down)
	}
	lv.down[u] = true
	for i, unit := range e.Machine.Units {
		if !lv.down[i] {
			lv.byArch[unit.Arch]++
			lv.byMem[unit.Mem]++
		}
	}
	e.live.Store(lv)
}

// WorkerAlive reports whether unit u is still alive.
func (e *Env) WorkerAlive(u platform.UnitID) bool {
	lv := e.live.Load()
	return lv == nil || !lv.down[u]
}

// LiveWorkersOf returns the number of live workers of architecture a.
// Without fault injection it equals Machine.NumWorkersOf.
func (e *Env) LiveWorkersOf(a platform.ArchID) int {
	if lv := e.live.Load(); lv != nil {
		return lv.byArch[a]
	}
	return e.Machine.NumWorkersOf(a)
}

// LiveWorkersOn returns the number of live workers on memory node mem.
func (e *Env) LiveWorkersOn(mem platform.MemID) int {
	if lv := e.live.Load(); lv != nil {
		return lv.byMem[mem]
	}
	return len(e.Machine.UnitsOn(mem))
}

// Delta returns δ(t, a): the estimated execution time of t on
// architecture a, or +Inf when t has no implementation for a. This is
// the quantity every heuristic in the paper is written in terms of.
func (e *Env) Delta(t *Task, a platform.ArchID) float64 {
	prior, ok := t.BaseCost(a)
	if !ok {
		return math.Inf(1)
	}
	sec, ok := e.Model.Estimate(t.Kind(), a, t.Footprint, prior, true)
	if !ok {
		return math.Inf(1)
	}
	return sec
}

// ExpectedDur returns the scheduler-visible expected duration of t on
// worker w: δ(t, w.Arch) scaled by the unit's speed factor. It is the
// estimate scheduling decisions are made with, which is the baseline a
// straggler is judged against (a slow unit the model knows about is not
// one). Without a finite estimate it returns 0, which
// spec.Policy.Eligible never speculates on.
func (e *Env) ExpectedDur(t *Task, w WorkerInfo) float64 {
	d := e.Delta(t, w.Arch)
	if math.IsInf(d, 1) {
		return 0
	}
	return d * e.Machine.Units[w.ID].SpeedFactor
}

// TransferEstimate sums the locator's per-handle estimates for all of
// t's accesses to mem. Write-only accesses need no fetch of the previous
// contents, matching the simulator's transfer rules.
func (e *Env) TransferEstimate(t *Task, mem platform.MemID) float64 {
	if e.Locator == nil {
		return 0
	}
	var sum float64
	for _, u := range t.Uses() {
		if u.Mode == W {
			continue
		}
		sum += e.Locator.TransferEstimate(u.Handle, mem)
	}
	return sum
}

// LSSDH2 computes the LS_SDH² locality score of task t on memory node
// mem (Eq. 3): the sum of sizes of the task's read data already resident
// on mem, plus the squared sizes for written data. Higher means more of
// the task's data is already local.
func (e *Env) LSSDH2(t *Task, mem platform.MemID) float64 {
	if e.Locator == nil {
		return 0
	}
	var score float64
	for _, u := range t.Uses() {
		bytes, ok := e.Locator.Resident(u.Handle, mem)
		if !ok {
			continue
		}
		sz := float64(bytes)
		if u.Mode.IsWrite() {
			score += sz * sz
		} else {
			score += sz
		}
	}
	return score
}

// NewEnv builds the Env of one run of g on m, with the run's RunState
// (one allocation) and sensible defaults: oracle performance model, home
// locator, zero clock. Engines override the fields they implement; a
// policy driven without an engine gets a fresh run from each NewEnv.
// The state is sized to g's tasks when NewEnv is called, so g must be
// complete by then.
func NewEnv(m *platform.Machine, g *Graph) *Env {
	return &Env{
		Machine: m,
		Graph:   g,
		Model:   perfmodel.Oracle{},
		Locator: homeLocator{g},
		Now:     func() float64 { return 0 },
		Seq:     func() int64 { return 0 },
		state:   make(RunState, len(g.Tasks)),
	}
}
