package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"multiprio/internal/apps/dense"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/telemetry"
)

// TelemetryRow is one scheduler's measured telemetry cost.
type TelemetryRow struct {
	Scheduler string
	// BareMs, ObservedMs and CaptureMs are the minimum wall-clock
	// milliseconds of a full simulated run over the repetitions: without
	// telemetry, with a telemetry probe observing, and with decision
	// capture plus a JSONL export on top.
	BareMs     float64
	ObservedMs float64
	CaptureMs  float64
	// Neutral reports the canonical-trace SHA-256 equality of the bare
	// and observed runs — the per-experiment re-statement of the golden
	// proof. RunTelemetry fails outright when any row is non-neutral.
	Neutral bool
}

// TelemetryResult is the -exp telemetry study: what live metrics
// aggregation costs on top of a simulated run, and the proof it changes
// nothing. Wall-clock numbers vary with the host; the Neutral column
// and the golden tests are the load-bearing guarantees, the timings
// quantify the "lock-cheap" design claim.
type TelemetryResult struct {
	Tasks int
	Reps  int
	Rows  []TelemetryRow
}

// telemetrySchedulers is the comparison set: the paper's policy, the
// busiest instrumentation (dmdas mapping events), and the cheapest
// baseline.
var telemetrySchedulers = []string{"multiprio", "dmdas", "eager"}

// RunTelemetry measures telemetry overhead on a Cholesky run per
// scheduler and asserts behaviour-neutrality via trace digests.
func RunTelemetry(c *Ctx) (*TelemetryResult, error) {
	m, err := PlatformByName("intel-v100", 1)
	if err != nil {
		return nil, err
	}
	tiles, reps := 8, 3
	if c.Scale == Full {
		tiles, reps = 16, 5
	}
	res := &TelemetryResult{Reps: reps, Tasks: dense.CholeskyTaskCount(tiles)}

	// minOver returns the fastest of reps runs under a fresh observer
	// each, after() included in the timing, and the last run's digest.
	minOver := func(schedName string, mkObserver func() runtime.RunObserver, after func(runtime.RunObserver) error) ([32]byte, float64, error) {
		var best time.Duration
		var digest [32]byte
		for i := 0; i < reps; i++ {
			observer := mkObserver()
			g := dense.Cholesky(dense.Params{Tiles: tiles, TileSize: 960, Machine: m, UserPriorities: true})
			s, err := NewScheduler(schedName)
			if err != nil {
				return digest, 0, err
			}
			start := time.Now()
			r, err := sim.Run(m, g, s, runtime.WithObserver(observer))
			if err == nil {
				err = after(observer)
			}
			if err != nil {
				return digest, 0, err
			}
			if el := time.Since(start); i == 0 || el < best {
				best = el
			}
			digest = sha256.Sum256(r.Trace.Canonical())
		}
		return digest, float64(best.Nanoseconds()) / 1e6, nil
	}
	nothing := func(runtime.RunObserver) error { return nil }

	res.Rows, err = sweep(c.serial(), len(telemetrySchedulers), func(i int) (TelemetryRow, error) {
		name := telemetrySchedulers[i]
		bareDigest, bareMs, err := minOver(name, func() runtime.RunObserver { return nil }, nothing)
		if err != nil {
			return TelemetryRow{}, fmt.Errorf("%s bare: %w", name, err)
		}
		obsDigest, obsMs, err := minOver(name, func() runtime.RunObserver { return telemetry.NewProbe() }, nothing)
		if err != nil {
			return TelemetryRow{}, fmt.Errorf("%s observed: %w", name, err)
		}
		// Capture mode adds decision retention and a JSONL export per
		// run — the full export-pipeline cost.
		_, capMs, err := minOver(name,
			func() runtime.RunObserver { return telemetry.NewProbe(telemetry.WithDecisionCapture(1 << 20)) },
			func(o runtime.RunObserver) error { return telemetry.ExportJSONL(io.Discard, o.(*telemetry.Probe)) })
		if err != nil {
			return TelemetryRow{}, fmt.Errorf("%s capture: %w", name, err)
		}
		if !bytes.Equal(bareDigest[:], obsDigest[:]) {
			return TelemetryRow{}, fmt.Errorf("%s: observed run diverged from bare run — telemetry perturbed scheduling", name)
		}
		return TelemetryRow{Scheduler: name, BareMs: bareMs, ObservedMs: obsMs, CaptureMs: capMs, Neutral: true}, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the overhead table.
func (r *TelemetryResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Telemetry overhead: full simulated Cholesky run (%d tasks, min of %d reps, Intel-V100 model)\n", r.Tasks, r.Reps)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %9s %8s\n", "scheduler", "bare ms", "telem ms", "export ms", "delta", "neutral")
	rule(w, 64)
	for _, row := range r.Rows {
		delta := 0.0
		if row.BareMs > 0 {
			delta = (row.ObservedMs - row.BareMs) / row.BareMs * 100
		}
		neutral := "yes"
		if !row.Neutral {
			neutral = "NO"
		}
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %10.1f %8.1f%% %8s\n",
			row.Scheduler, row.BareMs, row.ObservedMs, row.CaptureMs, delta, neutral)
	}
	fmt.Fprintln(w, "neutrality: canonical-trace SHA-256 of bare vs telemetry-observed runs must match")
}
