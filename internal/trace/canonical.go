package trace

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// WriteCanonical writes a lossless text encoding of the trace: every
// span, transfer and memory event in recorded order, floats rendered
// with the shortest round-trip representation. Two runs of the
// simulator on the same graph must produce byte-identical canonical
// encodings — the determinism invariant the conformance harness checks.
func (tr *Trace) WriteCanonical(w io.Writer) error {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if _, err := fmt.Fprintf(w, "machine %s makespan %s\n", tr.Machine.Name, f(tr.Makespan)); err != nil {
		return err
	}
	for _, s := range tr.Spans {
		// Failed and cancelled attempts get their own line prefixes;
		// fault-free, speculation-free traces contain neither, so their
		// encoding is byte-identical to the pre-fault format (the
		// golden-file invariant).
		tag := "span"
		switch {
		case s.Failed:
			tag = "fail"
		case s.Cancelled:
			tag = "canc"
		}
		if _, err := fmt.Fprintf(w, "%s w%d t%d %s %s %s %s %d %d\n",
			tag, s.Worker, s.TaskID, s.Kind, f(s.Start), f(s.End), f(s.Wait), s.StartSeq, s.EndSeq); err != nil {
			return err
		}
	}
	for _, x := range tr.Xfers {
		tag := "xfer"
		if x.Failed {
			tag = "xfail"
		}
		if _, err := fmt.Fprintf(w, "%s h%d %d->%d %d %s %s %v %v\n",
			tag, x.Handle, x.Src, x.Dst, x.Bytes, f(x.Start), f(x.End), x.Prefetch, x.Writeback); err != nil {
			return err
		}
	}
	for _, e := range tr.MemEvents {
		if _, err := fmt.Fprintf(w, "mem %s h%d m%d %d v%d %s %d\n",
			e.Kind, e.Handle, e.Mem, e.Bytes, e.Version, f(e.At), e.Seq); err != nil {
			return err
		}
	}
	return nil
}

// Canonical returns the canonical encoding as a byte slice.
func (tr *Trace) Canonical() []byte {
	var b bytes.Buffer
	if err := tr.WriteCanonical(&b); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return b.Bytes()
}
