package runtime

import (
	"slices"
	"strconv"

	"multiprio/internal/arena"
)

// Batch stages the handles and tasks of one batch submission in shared
// slabs, so a generator pays a constant number of allocations for all
// its tasks and their payloads instead of a Task, an access list, a cost
// row and a formatted handle name each. Every view it hands out has
// exact capacity: appending to one reallocates instead of writing into
// the next task's slice. Tasks are staged, not admitted one by one, so
// that Submit knows how much topology is coming.
type Batch struct {
	g     *Graph
	tasks []*Task
	// entries estimates the pool entries the staged tasks will take: an
	// edge per access and a reader-list slot per read (those exact, and
	// counted per handle in DataHandle.batchReads).
	entries int
	acc     arena.Arena[Access]
	cost    arena.Arena[float64]

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
		named: make([]namedHandle, 0, cap(g.Handles)-len(g.Handles)),
	}
}

// NewData registers a handle on the main RAM node, named as
// fmt.Sprintf(format, args...) would — format may use only the %d verb.
// The name is assigned by Submit.
func (b *Batch) NewData(bytes int64, format string, args ...int) *DataHandle {
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

// Accesses copies acc into the access slab and returns the copy, for use
// as TaskSpec.Accesses. The argument may be a reused scratch slice.
func (b *Batch) Accesses(acc ...Access) []Access {
	out := b.acc.GetN(len(acc))
	copy(out, acc)
	return out
}

// Cost returns a zeroed per-architecture cost row from the cost slab,
// for use as TaskSpec.Cost.
func (b *Batch) Cost(archs int) []float64 { return b.cost.GetN(archs) }

// Add stages one task: the spec is written straight into an arena Task.
func (b *Batch) Add(s TaskSpec) {
	t := b.g.taskArena.Get()
	*t = Task{Kind: s.Kind, Footprint: s.Footprint, Flops: s.Flops, Priority: s.Priority,
		Accesses: s.Accesses, Cost: s.Cost, Run: s.Run}
	for _, a := range s.Accesses {
		if a.Mode == R && a.Handle != nil {
			a.Handle.batchReads++
			b.entries++
		}
	}
	b.entries += len(s.Accesses)
	b.tasks = append(b.tasks, t)
}

// Submit names the batch's handles, submits the staged tasks exactly as
// a sequence of Graph.Submit calls would and returns them (a sub-slice
// of g.Tasks; callers must not append to it). The batch is spent.
func (b *Batch) Submit() []*Task {
	names := string(b.names)
	start := 0
	for _, n := range b.named {
		n.h.Name = names[start:n.end]
		start = n.end
	}
	g := b.g
	g.pool = slices.Grow(g.pool, b.entries)
	first := len(g.Tasks)
	for _, t := range b.tasks {
		g.admit(t)
	}
	return g.Tasks[first:len(g.Tasks):len(g.Tasks)]
}
