package runtime

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"multiprio/internal/platform"
)

// nodTable is one run's table of Eq. 2: row t holds NOD(t, a) for every
// architecture a, then t's implementation mask. One goroutine fills it
// in task-ID order beside the run and publishes rows through ready; the
// run's Envs, a cluster's node Envs among them, share it. An engine run
// of a NODReader starts the fill as the run begins; otherwise the first
// Env.NOD call starts it.
//
// The walk behind a row is memory-bound — every successor's predecessor
// list — and filling the table sequentially before the run cost what it
// saved; beside the event loop it runs on the core a single-threaded
// simulator leaves idle.
type nodTable struct {
	once sync.Once
	fill sync.WaitGroup
	// cols is the row width: one column per architecture and the mask.
	cols int
	rows []float64
	// ready is the number of leading rows the fill has finished.
	ready atomic.Int64
}

// nodPublish is how many rows the fill finishes between two
// publications, so the reader's cache line of ready moves once per
// batch and not once per row.
const nodPublish = 64

// NODReader is implemented by a policy that reads Env.NOD. An engine run
// of one that reads it as configured starts the fill as the run begins,
// so that the fill overlaps the engine's own set-up: the roots are pushed
// at Start, in ID order, and wait for the fill to pass the last of them.
type NODReader interface {
	ReadsNOD() bool
}

// NOD returns Eq. 2, the normalized out-degree of t on architecture a:
// the sum over t's successors s that can run on a, in Succs order, of
// 1/|λ−(s, a)|, the number of s's predecessors that can run on a (a
// successor with none adds nothing). It reads the run's table, starting
// the fill if nothing has, and a call for a row the fill has not reached
// yet yields until it has.
func (e *Env) NOD(t *Task, a platform.ArchID) float64 {
	n := e.nodTable()
	n.once.Do(func() { n.start(e.Graph, len(e.Machine.Archs)) })
	if uint(a) >= uint(n.cols-1) {
		panic(fmt.Sprintf("runtime: NOD on architecture %d of %d", a, n.cols-1))
	}
	for n.ready.Load() <= t.ID {
		goruntime.Gosched()
	}
	return n.rows[int(t.ID)*n.cols+int(a)]
}

// nodTable returns the run's table: the one e was given, else e's own.
func (e *Env) nodTable() *nodTable {
	if e.nod != nil {
		return e.nod
	}
	return &e.ownNOD
}

// start sizes the table for g's tasks on archs architectures and starts
// the fill; callers make it once, through n.once. The successor view is
// brought up to date first, here: the fill reads it without going through
// Task.Succs, which rebuilds a stale view in place.
func (n *nodTable) start(g *Graph, archs int) {
	if archs > 64 {
		panic("runtime: NOD supports at most 64 architectures")
	}
	if !g.succOK {
		g.buildSuccs()
	}
	n.cols = archs + 1
	n.rows = make([]float64, len(g.Tasks)*n.cols)
	n.fill.Add(1)
	go func() {
		defer n.fill.Done()
		n.build(g)
	}()
}

// build fills the table in task-ID order in one slab. A task's row first
// holds, per architecture it can run on, the reciprocal of its count of
// predecessors there (counted from their masks: predecessors have
// smaller IDs), and its mask, which stays. Its NOD overwrites the
// reciprocals once every successor is counted; successors have larger
// IDs, and by then every predecessor, having a smaller ID, has read the
// reciprocals. The terms are added in Succs order, a skipped successor
// as +0, so each value is the float a successor walk gives.
//
// Whether a task runs on an architecture is a coin toss to the branch
// predictor, so counting and choosing a reciprocal take no branch on it.
func (n *nodTable) build(g *Graph) {
	rows, cols, archs := n.rows, n.cols, n.cols-1
	tasks, preds, pool, succOff, succs := g.Tasks, g.rows, g.pool, g.succOff, g.succs
	var on [64]int32 // the counted task's predecessors per architecture
	counted := 0
	count := func(id int) {
		t, row := tasks[id], rows[id*cols:(id+1)*cols]
		var mask uint64
		for a := range archs {
			if t.CanRun(platform.ArchID(a)) {
				mask |= 1 << a
			}
		}
		clear(on[:archs])
		r := preds[id]
		for _, p := range pool[r.off : r.off+r.n] {
			m := math.Float64bits(rows[int(p)*cols+archs])
			for a := range archs {
				on[a] += int32(m >> a & 1)
			}
		}
		for a := range archs {
			v := 1 / float64(on[a])
			if mask>>a&1 == 0 || on[a] == 0 {
				v = 0
			}
			row[a] = v
		}
		row[archs] = math.Float64frombits(mask)
	}
	for id := range tasks {
		for ; counted <= id; counted++ {
			count(counted)
		}
		row := rows[id*cols : id*cols+archs]
		clear(row)
		for _, s := range succs[succOff[id]:succOff[id+1]] {
			for ; counted <= int(s); counted++ {
				count(counted)
			}
			r := rows[int(s)*cols:]
			for a := range row {
				row[a] += r[a]
			}
		}
		if id%nodPublish == nodPublish-1 {
			n.ready.Store(int64(id) + 1)
		}
	}
	n.ready.Store(int64(len(tasks)))
}
