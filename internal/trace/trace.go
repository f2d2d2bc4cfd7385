// Package trace records execution traces of simulated or threaded runs
// and derives the metrics the paper reports: makespan, per-resource idle
// percentage (Fig. 4), transferred bytes, and the practical critical
// path. It also renders ASCII Gantt charts in the spirit of StarVZ.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"multiprio/internal/platform"
)

// Span is one busy interval of a resource.
type Span struct {
	Worker platform.UnitID
	TaskID int64
	Kind   string
	Start  float64
	End    float64
	// Wait is the portion of [Start, End] spent waiting for data
	// transfers before the kernel actually ran.
	Wait float64
	// StartSeq and EndSeq are the engine's linearization points of the
	// kernel start (Start+Wait) and completion. Together with
	// MemEvent.Seq they give the execution oracle an exact total order
	// over same-instant events. Zero for engines without a sequencer
	// (the threaded engine).
	StartSeq int64
	EndSeq   int64
	// Failed marks an execution attempt aborted by fault injection (the
	// worker was killed mid-kernel, or its completion was discarded).
	// The task has another, successful span elsewhere in the trace.
	Failed bool
	// Cancelled marks a speculation loser: another attempt of the task
	// completed first, so this one was cancelled (sim) or its completion
	// discarded (threaded engine). Cancelled attempts never publish
	// writes; the task's effective span is elsewhere in the trace.
	Cancelled bool
}

// Transfer is one data movement between memory nodes.
type Transfer struct {
	Handle   int64
	Src, Dst platform.MemID
	Bytes    int64
	Start    float64
	End      float64
	Prefetch bool
	// Writeback marks evictions flushing a dirty replica to RAM.
	Writeback bool
	// Failed marks a transfer that failed in flight (fault injection);
	// the payload was discarded on arrival and the engine re-issued it.
	Failed bool
}

// MemEventKind classifies memory-residency events.
type MemEventKind uint8

const (
	// MemAlloc: bytes were reserved for a replica on the node (a fetch
	// started or a write-only access allocated space).
	MemAlloc MemEventKind = iota + 1
	// MemValid: the replica became readable, carrying Version.
	MemValid
	// MemFree: the replica was dropped (eviction, write invalidation,
	// stale in-flight payload discarded) and its bytes released.
	MemFree
)

// String returns the short name of the kind.
func (k MemEventKind) String() string {
	switch k {
	case MemAlloc:
		return "alloc"
	case MemValid:
		return "valid"
	case MemFree:
		return "free"
	default:
		return fmt.Sprintf("MemEventKind(%d)", uint8(k))
	}
}

// MemEvent is one replica state change on a memory node, recorded by the
// simulator's memory manager when Options.CollectMemEvents is set. The
// execution oracle replays the stream to verify data coherence (every
// read observes the last writer's version) and capacity limits.
type MemEvent struct {
	Kind   MemEventKind
	Handle int64
	Mem    platform.MemID
	Bytes  int64
	// Version is the number of completed writes to the handle when this
	// replica's payload was produced (MemValid only).
	Version int64
	At      float64
	// Seq is the engine's linearization point of the state change.
	Seq int64
}

// Trace accumulates the events of one run.
type Trace struct {
	Machine   *platform.Machine
	Spans     []Span
	Xfers     []Transfer
	MemEvents []MemEvent
	Makespan  float64
}

// New returns an empty trace for machine m.
func New(m *platform.Machine) *Trace {
	return &Trace{Machine: m}
}

// Reserve presizes the span slice for a run whose volume is known up
// front (one span per task). Growing a million-span slice by doubling
// was the simulator's largest single allocation cost.
func (tr *Trace) Reserve(spans int) {
	if spans > cap(tr.Spans) {
		tr.Spans = append(make([]Span, 0, spans), tr.Spans...)
	}
}

// AddSpan records a task execution interval. Failed and cancelled
// attempts never push the makespan: the task's effective completion is
// a different span (a successful retry ends later by construction; a
// speculation loser lost to an attempt that already completed).
func (tr *Trace) AddSpan(s Span) {
	tr.Spans = append(tr.Spans, s)
	if s.End > tr.Makespan && !s.Failed && !s.Cancelled {
		tr.Makespan = s.End
	}
}

// BusyTime returns the total busy (executing or transfer-waiting) time of
// worker w.
func (tr *Trace) BusyTime(w platform.UnitID) float64 {
	var sum float64
	for _, s := range tr.Spans {
		if s.Worker == w {
			sum += s.End - s.Start
		}
	}
	return sum
}

// IdlePercent returns the idle share of worker w over the makespan, in
// percent — the left-hand annotation of the paper's Fig. 4 traces.
func (tr *Trace) IdlePercent(w platform.UnitID) float64 {
	if tr.Makespan <= 0 {
		return 0
	}
	idle := 1 - tr.BusyTime(w)/tr.Makespan
	if idle < 0 {
		idle = 0
	}
	return 100 * idle
}

// ArchIdlePercent averages IdlePercent over the workers of arch a.
func (tr *Trace) ArchIdlePercent(a platform.ArchID) float64 {
	units := tr.Machine.UnitsOf(a)
	if len(units) == 0 {
		return 0
	}
	var sum float64
	for _, u := range units {
		sum += tr.IdlePercent(u)
	}
	return sum / float64(len(units))
}

// TransferredBytes sums the payload of all recorded transfers, split by
// class.
func (tr *Trace) TransferredBytes() (fetch, prefetch, writeback int64) {
	for _, x := range tr.Xfers {
		switch {
		case x.Writeback:
			writeback += x.Bytes
		case x.Prefetch:
			prefetch += x.Bytes
		default:
			fetch += x.Bytes
		}
	}
	return
}

// Summary renders a compact per-architecture report.
func (tr *Trace) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.4fs, %d tasks\n", tr.Makespan, len(tr.Spans))
	for a := range tr.Machine.Archs {
		arch := platform.ArchID(a)
		fmt.Fprintf(&b, "  %-4s ×%-3d idle %5.1f%%\n",
			tr.Machine.ArchName(arch), tr.Machine.NumWorkersOf(arch), tr.ArchIdlePercent(arch))
	}
	f, p, wb := tr.TransferredBytes()
	if f+p+wb > 0 {
		fmt.Fprintf(&b, "  transfers: fetch %.1f MiB, prefetch %.1f MiB, writeback %.1f MiB\n",
			float64(f)/float64(platform.MiB), float64(p)/float64(platform.MiB), float64(wb)/float64(platform.MiB))
	}
	return b.String()
}

// Gantt renders an ASCII Gantt chart with the given column width. Each
// row is a worker; '.' is idle, a letter is the initial of the running
// kernel, '~' marks transfer wait. Rows are ordered by unit ID.
func (tr *Trace) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	if tr.Makespan <= 0 || len(tr.Spans) == 0 {
		return "(empty trace)\n"
	}
	rows := make(map[platform.UnitID][]rune)
	for u := range tr.Machine.Units {
		row := make([]rune, width)
		for i := range row {
			row[i] = '.'
		}
		rows[platform.UnitID(u)] = row
	}
	scale := float64(width) / tr.Makespan
	for _, s := range tr.Spans {
		row := rows[s.Worker]
		c := '?'
		if len(s.Kind) > 0 {
			c = rune(s.Kind[0])
		}
		i0 := int(s.Start * scale)
		i1 := int(s.End * scale)
		if i1 >= width {
			i1 = width - 1
		}
		waitEnd := int((s.Start + s.Wait) * scale)
		for i := i0; i <= i1; i++ {
			if i < waitEnd {
				row[i] = '~'
			} else {
				row[i] = c
			}
		}
	}
	var b strings.Builder
	units := make([]int, 0, len(rows))
	for u := range rows {
		units = append(units, int(u))
	}
	sort.Ints(units)
	for _, u := range units {
		unit := tr.Machine.Units[u]
		fmt.Fprintf(&b, "%-10s |%s| idle %5.1f%%\n", unit.Name, string(rows[platform.UnitID(u)]), tr.IdlePercent(platform.UnitID(u)))
	}
	fmt.Fprintf(&b, "%-10s  0%*s%.4fs\n", "", width-len(fmt.Sprintf("%.4fs", tr.Makespan))+1, "", tr.Makespan)
	return b.String()
}
