package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// DecisionLog is a Probe that records every decision event in arrival
// order and renders them as a canonical text log. Under the simulator
// the log is fully deterministic (same run, same bytes), so it is
// golden-testable exactly like the canonical trace encoding. Counter
// samples are ignored; pair with a Metrics recorder via Multi.
type DecisionLog struct {
	mu sync.Mutex
	ds []Decision
}

// Decision implements Probe.
func (l *DecisionLog) Decision(d Decision) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

// Counter implements Probe (ignored).
func (l *DecisionLog) Counter(track string, at float64, seq int64, value float64) {}

// Len returns the number of recorded decisions.
func (l *DecisionLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ds)
}

// CountKind returns the number of recorded decisions of kind k.
func (l *DecisionLog) CountKind(k DecisionKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, d := range l.ds {
		if d.Kind == k {
			n++
		}
	}
	return n
}

// WriteCanonical writes the decision log as a lossless text encoding,
// one line per decision in recorded order:
//
//	<kind> t<task> w<worker> m<mem> a<arch> n<N> <A> <B> <C> @<at> s<seq>
//
// Floats use the shortest round-trip representation, like the canonical
// trace encoding, so two deterministic runs produce byte-identical logs.
func (l *DecisionLog) WriteCanonical(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, d := range l.ds {
		buf = AppendDecision(buf[:0], d)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendDecision appends the canonical one-line encoding of d (without
// the trailing newline) to buf and returns the extended slice.
func AppendDecision(buf []byte, d Decision) []byte {
	buf = append(buf, d.Kind.String()...)
	buf = append(buf, " t"...)
	buf = strconv.AppendInt(buf, d.Task, 10)
	buf = append(buf, " w"...)
	buf = strconv.AppendInt(buf, int64(d.Worker), 10)
	buf = append(buf, " m"...)
	buf = strconv.AppendInt(buf, int64(d.Mem), 10)
	buf = append(buf, " a"...)
	buf = strconv.AppendInt(buf, int64(d.Arch), 10)
	buf = append(buf, " n"...)
	buf = strconv.AppendInt(buf, int64(d.N), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, d.A, 'g', -1, 64)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, d.B, 'g', -1, 64)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, d.C, 'g', -1, 64)
	buf = append(buf, " @"...)
	buf = strconv.AppendFloat(buf, d.At, 'g', -1, 64)
	buf = append(buf, " s"...)
	buf = strconv.AppendInt(buf, d.Seq, 10)
	return buf
}

// FormatDecision returns the canonical one-line encoding of d.
func FormatDecision(d Decision) string { return string(AppendDecision(nil, d)) }

// SpanArgs condenses the log into per-task Chrome trace span arguments,
// so Perfetto task tooltips explain placement without opening the
// decision log: the gain score in the heap the task was popped from,
// the memory node it was selected on, its LS_SDH² locality score, the
// evict-and-retry count it suffered, and the dmdas expected completion
// time when a HEFT mapping placed it. memName resolves a memory-node
// index to its display name (nil falls back to the numeric index).
func (l *DecisionLog) SpanArgs(memName func(int) string) map[int64]map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	mn := func(m int) string {
		if memName == nil || m < 0 {
			return strconv.Itoa(m)
		}
		return memName(m)
	}
	// gains[(task,mem)] is the gain the task was scored with on that
	// node's heap at push time, so the pop can be annotated with the
	// score it was actually selected under.
	type taskMem struct {
		task int64
		mem  int
	}
	gains := map[taskMem]float64{}
	evicts := map[int64]int{}
	out := map[int64]map[string]string{}
	arg := func(task int64) map[string]string {
		a := out[task]
		if a == nil {
			a = map[string]string{}
			out[task] = a
		}
		return a
	}
	for _, d := range l.ds {
		switch d.Kind {
		case PushScore:
			gains[taskMem{d.Task, d.Mem}] = d.A
		case PopEvict:
			evicts[d.Task]++
		case PopSelect:
			a := arg(d.Task)
			a["mem_node"] = mn(d.Mem)
			if g, ok := gains[taskMem{d.Task, d.Mem}]; ok {
				a["gain"] = ff(g)
			}
			if d.A != 0 {
				a["lssdh2"] = ff(d.A)
			}
			if n := evicts[d.Task]; n > 0 {
				a["evict_retries"] = strconv.Itoa(n)
			}
		case MapTask:
			a := arg(d.Task)
			a["mem_node"] = mn(d.Mem)
			a["ect"] = ff(d.A)
		}
	}
	return out
}
