package trace

import (
	"math"
	"strings"
	"testing"

	"multiprio/internal/platform"
)

func twoWorkerMachine() *platform.Machine {
	return platform.CPUOnly(2)
}

func TestIdlePercent(t *testing.T) {
	tr := New(twoWorkerMachine())
	tr.AddSpan(Span{Worker: 0, Kind: "a", Start: 0, End: 10})
	tr.AddSpan(Span{Worker: 1, Kind: "b", Start: 0, End: 5})
	if tr.Makespan != 10 {
		t.Fatalf("makespan = %v, want 10", tr.Makespan)
	}
	if got := tr.IdlePercent(0); got != 0 {
		t.Errorf("worker 0 idle = %v, want 0", got)
	}
	if got := tr.IdlePercent(1); math.Abs(got-50) > 1e-9 {
		t.Errorf("worker 1 idle = %v, want 50", got)
	}
	if got := tr.ArchIdlePercent(platform.ArchCPU); math.Abs(got-25) > 1e-9 {
		t.Errorf("arch idle = %v, want 25", got)
	}
}

func TestIdlePercentEmptyTrace(t *testing.T) {
	tr := New(twoWorkerMachine())
	if tr.IdlePercent(0) != 0 {
		t.Error("empty trace should report 0 idle")
	}
	if !strings.Contains(tr.Gantt(40), "empty") {
		t.Error("empty Gantt should say so")
	}
}

func TestTransferredBytesByClass(t *testing.T) {
	tr := New(twoWorkerMachine())
	tr.Xfers = append(tr.Xfers, Transfer{Bytes: 100})
	tr.Xfers = append(tr.Xfers, Transfer{Bytes: 10, Prefetch: true})
	tr.Xfers = append(tr.Xfers, Transfer{Bytes: 1, Writeback: true})
	f, p, w := tr.TransferredBytes()
	if f != 100 || p != 10 || w != 1 {
		t.Errorf("TransferredBytes = %d, %d, %d", f, p, w)
	}
}

func TestGanttRendersKernels(t *testing.T) {
	tr := New(twoWorkerMachine())
	tr.AddSpan(Span{Worker: 0, Kind: "potrf", Start: 0, End: 5})
	tr.AddSpan(Span{Worker: 0, Kind: "gemm", Start: 5, End: 10, Wait: 2})
	tr.AddSpan(Span{Worker: 1, Kind: "trsm", Start: 0, End: 10})
	g := tr.Gantt(40)
	for _, want := range []string{"p", "g", "t", "~", "cpu0", "cpu1", "idle"} {
		if !strings.Contains(g, want) {
			t.Errorf("Gantt missing %q:\n%s", want, g)
		}
	}
}

func TestSummary(t *testing.T) {
	tr := New(twoWorkerMachine())
	tr.AddSpan(Span{Worker: 0, Kind: "a", Start: 0, End: 1})
	tr.Xfers = append(tr.Xfers, Transfer{Bytes: 1 << 20})
	s := tr.Summary()
	if !strings.Contains(s, "makespan") || !strings.Contains(s, "transfers") {
		t.Errorf("Summary = %q", s)
	}
}

func TestFailedSpansExcludedFromMakespan(t *testing.T) {
	tr := New(twoWorkerMachine())
	tr.AddSpan(Span{Worker: 0, TaskID: 1, Kind: "a", Start: 0, End: 9, Failed: true})
	tr.AddSpan(Span{Worker: 1, TaskID: 1, Kind: "a", Start: 9, End: 10})
	if tr.Makespan != 10 {
		t.Errorf("makespan = %v, want 10", tr.Makespan)
	}
}

func TestCanonicalFaultPrefixes(t *testing.T) {
	tr := New(twoWorkerMachine())
	tr.AddSpan(Span{Worker: 0, TaskID: 1, Kind: "a", Start: 0, End: 1, Failed: true})
	tr.AddSpan(Span{Worker: 1, TaskID: 1, Kind: "a", Start: 1, End: 2})
	tr.Xfers = append(tr.Xfers, Transfer{Handle: 3, Src: 0, Dst: 1, Bytes: 8, Failed: true})
	s := string(tr.Canonical())
	if !strings.Contains(s, "fail w0 t1") || !strings.Contains(s, "span w1 t1") {
		t.Errorf("failed span not tagged:\n%s", s)
	}
	if !strings.Contains(s, "xfail h3") {
		t.Errorf("failed transfer not tagged:\n%s", s)
	}
}
