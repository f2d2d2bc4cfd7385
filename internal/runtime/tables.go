package runtime

import (
	"fmt"
	"math"
	"slices"
)

// A graph keeps what heuristics key by task type in three tables, which
// its tasks index instead of holding copies (STOMP's task type × PE
// type service table, HeSP's per-type tables):
//
//   - kinds, the kernel names, interned at submission: Task.Kind and
//     Task.KindID;
//   - costs, the cost rows back to back: Task.Cost. A row carved with
//     CostRow or Batch.Cost is filled in place and taken by the tasks
//     submitted with it; any other row is copied in;
//   - kernels, only on graphs whose tasks have some: Task.Kernel.
//
// None of them allocates per task or holds a map.

// carvedRows is the number of most recently carved cost rows a
// submission recognises as the table's own.
const carvedRows = 16

// Kinds returns the graph's kind table: Task.KindID indexes it. The
// slice is owned by the graph; callers must not mutate it.
func (g *Graph) Kinds() []string { return g.kinds[:len(g.kinds):len(g.kinds)] }

// internKind returns the KindID of kind, adding it to the table on
// first sight. Graphs have a handful of kinds, so a scan finds it; the
// first ones live in an array inside the graph.
func (g *Graph) internKind(kind string) int32 {
	for i, k := range g.kinds {
		if k == kind {
			return int32(i)
		}
	}
	if g.kinds == nil {
		g.kinds = g.kindSlots[:0]
	}
	g.kinds = append(g.kinds, kind)
	return int32(len(g.kinds) - 1)
}

// CostRow returns a zeroed row of archs entries carved from the graph's
// cost table, for the caller to fill and pass as TaskSpec.Cost: the
// tasks submitted with it share the row instead of copying it, as long
// as it is among the last carvedRows rows carved. Fill it before the
// first of them is submitted, and leave it alone afterwards: submission
// reads the row. Its capacity is exact.
func (g *Graph) CostRow(archs int) []float64 {
	if archs <= 0 {
		return nil
	}
	checkRowLen(archs)
	if cap(g.costs) == 0 {
		g.costs = slices.Grow(g.costs, carvedRows*archs)
	}
	off := g.costEnd(archs)
	g.costs = append(g.costs, make([]float64, archs)...)
	g.carved[g.nCarved%carvedRows] = off
	g.nCarved++
	return g.costs[off : int(off)+archs : int(off)+archs]
}

// costEnd returns the offset a row of n entries appended to the table
// will have.
func (g *Graph) costEnd(n int) int32 {
	if len(g.costs)+n > math.MaxInt32 {
		panic("runtime: graph cost rows exceed 2^31 entries")
	}
	return int32(len(g.costs))
}

// checkRowLen panics on a cost row a task cannot index.
func checkRowLen(n int) {
	if n > math.MaxUint8 {
		panic(fmt.Sprintf("runtime: cost row of %d architectures, at most %d supported", n, math.MaxUint8))
	}
}

// internRow returns the offset in the table of a spec's cost row: the
// row itself when c was carved from the table (CostRow, Batch.Cost),
// else a copy of c appended to it.
func (g *Graph) internRow(c []float64) int32 {
	if len(c) == 0 {
		return 0
	}
	checkRowLen(len(c))
	for i := 1; i <= min(g.nCarved, carvedRows); i++ {
		off := g.carved[(g.nCarved-i)%carvedRows]
		if int(off)+len(c) <= len(g.costs) && &g.costs[off] == &c[0] {
			return off
		}
	}
	off := g.costEnd(len(c))
	g.costs = append(g.costs, c...)
	return off
}

// rowCaps is the capability mask of a cost row over its first capsArchs
// entries.
func rowCaps(c []float64) uint8 {
	var m uint8
	for a := 0; a < len(c) && a < capsArchs; a++ {
		if capable(c[a]) {
			m |= 1 << uint(a)
		}
	}
	return m
}

// SetKernel makes run the kernel of t, a task of g, which the threaded
// engine executes (nil: none). Set kernels before the graph runs. The
// kernel table is presized for every task the graph has room for when
// its first kernel is set.
func (g *Graph) SetKernel(t *Task, run func(w WorkerInfo)) {
	if t.g != g {
		panic("runtime: SetKernel on a task not submitted to this graph")
	}
	if t.kernel > 0 {
		g.kernels[t.kernel-1] = run
		return
	}
	if run == nil {
		return
	}
	if g.kernels == nil {
		g.kernels = make([]func(WorkerInfo), 0, max(cap(g.Tasks), 1))
	}
	g.kernels = append(g.kernels, run)
	t.kernel = int32(len(g.kernels))
}
