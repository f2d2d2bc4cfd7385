package trace

import (
	"fmt"
	"strings"
)

// EnergyReport breaks down the energy consumed by one run, per
// architecture, using the platform's per-unit busy/idle power model.
// This supports the paper's Section VII outlook ("incorporate energy
// efficiency heuristics to take advantage of the CPUs and re-balance
// the workload ... without compromising overall performance").
type EnergyReport struct {
	// PerArch[a] is the energy in joules attributed to architecture a.
	PerArch []float64
	// Total is the summed energy in joules.
	Total float64
	// Makespan mirrors the trace makespan, for energy-delay products.
	Makespan float64
}

// EDP returns the energy-delay product in joule-seconds.
func (r *EnergyReport) EDP() float64 { return r.Total * r.Makespan }

// String renders a compact per-architecture summary.
func (r *EnergyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.1f J total (EDP %.2f J·s)", r.Total, r.EDP())
	return b.String()
}

// Energy computes the run's energy from the recorded spans: every unit
// draws its architecture's busy power while a span occupies it (the
// transfer-wait portion is billed at idle power — the unit stalls) and
// idle power otherwise, integrated over the makespan.
func (tr *Trace) Energy() *EnergyReport {
	rep := &EnergyReport{
		PerArch:  make([]float64, len(tr.Machine.Archs)),
		Makespan: tr.Makespan,
	}
	busy := make([]float64, len(tr.Machine.Units))
	wait := make([]float64, len(tr.Machine.Units))
	for _, s := range tr.Spans {
		busy[s.Worker] += s.End - s.Start - s.Wait
		wait[s.Worker] += s.Wait
	}
	for u, unit := range tr.Machine.Units {
		arch := tr.Machine.Archs[unit.Arch]
		idleTime := tr.Makespan - busy[u] - wait[u]
		if idleTime < 0 {
			idleTime = 0
		}
		j := busy[u]*arch.BusyWatts + (idleTime+wait[u])*arch.IdleWatts
		rep.PerArch[unit.Arch] += j
		rep.Total += j
	}
	return rep
}
