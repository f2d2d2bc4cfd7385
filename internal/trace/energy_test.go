package trace

import (
	"math"
	"strings"
	"testing"

	"multiprio/internal/platform"
)

func TestEnergyAccounting(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	tr := New(m)
	// One CPU unit busy 1s of a 2s makespan; one GPU stream busy 2s.
	tr.AddSpan(Span{Worker: 0, Kind: "a", Start: 0, End: 1})
	tr.AddSpan(Span{Worker: 30, Kind: "g", Start: 0, End: 2})

	rep := tr.Energy()
	if rep.Makespan != 2 {
		t.Fatalf("makespan = %v", rep.Makespan)
	}
	cpuArch := m.Archs[platform.ArchCPU]
	gpuArch := m.Archs[platform.ArchGPU]
	// CPU arch: unit 0 busy 1s + idle 1s; 29 other units idle 2s.
	wantCPU := 1*cpuArch.BusyWatts + 1*cpuArch.IdleWatts + 29*2*cpuArch.IdleWatts
	if math.Abs(rep.PerArch[platform.ArchCPU]-wantCPU) > 1e-9 {
		t.Errorf("cpu energy = %v, want %v", rep.PerArch[platform.ArchCPU], wantCPU)
	}
	// GPU arch: unit 30 busy 2s, the other fully idle.
	wantGPU := 2*gpuArch.BusyWatts + 2*gpuArch.IdleWatts
	if math.Abs(rep.PerArch[platform.ArchGPU]-wantGPU) > 1e-9 {
		t.Errorf("gpu energy = %v, want %v", rep.PerArch[platform.ArchGPU], wantGPU)
	}
	if math.Abs(rep.Total-(wantCPU+wantGPU)) > 1e-9 {
		t.Errorf("total = %v, want %v", rep.Total, wantCPU+wantGPU)
	}
	if rep.EDP() != rep.Total*2 {
		t.Error("EDP mismatch")
	}
	if !strings.Contains(rep.String(), "J total") {
		t.Errorf("String() = %q", rep.String())
	}
}

func TestEnergyBillsTransferWaitAsIdle(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	tr := New(m)
	tr.AddSpan(Span{Worker: 30, Kind: "g", Start: 0, End: 2, Wait: 1.5})
	rep := tr.Energy()
	gpu := m.Archs[platform.ArchGPU]
	want := 0.5*gpu.BusyWatts + 1.5*gpu.IdleWatts + 2*gpu.IdleWatts // busy part + wait + other idle unit
	if math.Abs(rep.PerArch[platform.ArchGPU]-want) > 1e-9 {
		t.Errorf("gpu energy = %v, want %v (wait billed at idle power)", rep.PerArch[platform.ArchGPU], want)
	}
}

func TestEnergyZeroPowerModel(t *testing.T) {
	m := platform.CPUOnly(2) // preset without watts
	tr := New(m)
	tr.AddSpan(Span{Worker: 0, Kind: "a", Start: 0, End: 1})
	if e := tr.Energy().Total; e != 0 {
		t.Errorf("energy without a power model = %v, want 0", e)
	}
}
