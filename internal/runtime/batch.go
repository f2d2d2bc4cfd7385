package runtime

import (
	"slices"
	"strconv"
)

// Batch stages the handles and tasks of one batch submission in shared
// slabs, so a generator pays a constant number of allocations for all
// its tasks and their payloads instead of a Task, an access list, a cost
// row and a formatted handle name each. A task's accesses go to the
// graph's use table as it is staged, so the spec's access slice may be
// a reused scratch. Every view the batch hands out has exact capacity:
// appending to one reallocates instead of writing into the next task's
// slice. Tasks are staged first and admitted later, by
// Admit while the caller goes on staging or by Submit: the staged reads
// size each handle's reader list, and the first admission sizes the
// batch's share of the graph.
type Batch struct {
	g     *Graph
	tasks []*Task
	// admitted counts the staged tasks admitted so far, in order.
	admitted int
	// accesses estimates the edges the staged tasks will add, one per
	// access; reads is the reader-list slots they will take (exact, and
	// counted per handle in handleState.batchReads). hint is the task
	// count NewBatch was given, edgeHint and readHint the counts Reserve
	// announced for the whole batch.
	accesses, reads          int
	hint, edgeHint, readHint int
	// costSized says the graph's cost table has been grown for hint rows.
	costSized bool

	// names holds every handle name back to back, named the handles and
	// where each one's name ends. Submit converts the buffer to one
	// string and hands each handle its substring.
	names []byte
	named []namedHandle
}

type namedHandle struct {
	h   *DataHandle
	end int
}

// NewBatch returns an empty batch over g with room for the given number
// of tasks (a hint; the batch grows past it) and for as many handles as
// g has capacity left.
func (g *Graph) NewBatch(tasks int) *Batch {
	return &Batch{
		g:     g,
		tasks: make([]*Task, 0, tasks),
		hint:  tasks,
		named: make([]namedHandle, 0, cap(g.Handles)-len(g.Handles)),
	}
}

// NewData registers a handle on the main RAM node, named as
// fmt.Sprintf(format, args...) would — format may use only the %d verb.
// The name is assigned by Submit.
func (b *Batch) NewData(bytes int64, format string, args ...int) *DataHandle {
	if b.names == nil {
		// Size the buffer once, for every handle the batch has room for,
		// each %d as wide as that handle count.
		var digits [20]byte
		width := len(format) + len(args)*(len(strconv.AppendInt(digits[:0], int64(cap(b.named)), 10))-2)
		b.names = make([]byte, 0, cap(b.named)*width)
	}
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) && format[i+1] == 'd' && len(args) > 0 {
			b.names = strconv.AppendInt(b.names, int64(args[0]), 10)
			args = args[1:]
			i++
			continue
		}
		b.names = append(b.names, format[i])
	}
	h := b.g.NewData("", bytes)
	b.named = append(b.named, namedHandle{h, len(b.names)})
	return h
}

// Cost returns a zeroed per-architecture cost row carved from the
// graph's cost table (Graph.CostRow), for one task's TaskSpec.Cost: the
// task takes the row itself, at no further cost. The first call grows
// the table for as many rows as NewBatch was told tasks.
func (b *Batch) Cost(archs int) []float64 {
	if !b.costSized {
		b.g.costs = slices.Grow(b.g.costs, b.hint*archs)
		b.costSized = true
	}
	return b.g.CostRow(archs)
}

// Add stages one task: the spec is written straight into an arena Task
// and its accesses into the graph's use table.
func (b *Batch) Add(s TaskSpec) {
	hs := b.g.open().handles
	t := b.g.newTask(s)
	for _, u := range b.g.uses[t.uses.off:] {
		if u.Mode == R {
			hs[u.Handle].batchReads++
			b.reads++
		}
	}
	b.accesses += len(s.Accesses)
	b.tasks = append(b.tasks, t)
}

// Reserve announces that the whole batch will stage uses accesses, add
// about edges edges to the graph and make reads R accesses. The graph's
// use table grows at once to hold every access, and the first admission
// sizes the edge log and the reader lists for all of the batch. Without
// it the use table grows as tasks are staged, and the edge log and
// reader lists are sized for what is staged at the first admission; past
// the announcement they grow as usual.
func (b *Batch) Reserve(uses, edges, reads int) {
	b.g.uses = slices.Grow(b.g.uses, max(0, uses-b.accesses))
	b.edgeHint, b.readHint = edges, reads
}

// Admit admits the first n staged tasks, those of them not admitted
// yet, exactly as a sequence of Graph.Submit calls would: the tasks get
// their IDs and their inferred edges. n may not exceed the number
// staged. A handle's reader list is sized by the reads staged when its
// first reader is admitted, so a caller admits a task once the other
// tasks that read the same handles are staged, where it can.
func (b *Batch) Admit(n int) {
	if b.admitted == 0 && n > 0 {
		b.presize()
	}
	for ; b.admitted < n; b.admitted++ {
		b.g.admit(b.tasks[b.admitted])
	}
}

// presize makes room in the graph for the whole batch, as NewBatch and
// Reserve announced it or as staged when that is more: the per-task
// tables, the edge log and the reader lists.
func (b *Batch) presize() {
	g := b.g
	sub := g.open()
	g.growTasks(max(b.hint, len(b.tasks)))
	g.pool = slices.Grow(g.pool, max(b.edgeHint, b.accesses))
	sub.lists = slices.Grow(sub.lists, max(b.readHint, b.reads))
}

// Submit names the batch's handles, admits the staged tasks Admit has
// not and returns them all, in order (callers must not append to the
// slice). The batch is spent.
func (b *Batch) Submit() []*Task {
	names := string(b.names)
	start := 0
	for _, n := range b.named {
		n.h.Name = names[start:n.end]
		start = n.end
	}
	b.Admit(len(b.tasks))
	return b.tasks[:len(b.tasks):len(b.tasks)]
}
