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
func RunTelemetry(scale Scale, progress io.Writer) (*TelemetryResult, error) {
	m, err := PlatformByName("intel-v100", 1)
	if err != nil {
		return nil, err
	}
	tiles, reps := 8, 3
	if scale == Full {
		tiles, reps = 16, 5
	}
	build := func() *dense.Params {
		return &dense.Params{Tiles: tiles, TileSize: 960, Machine: m, UserPriorities: true}
	}
	res := &TelemetryResult{Reps: reps}

	runOnce := func(schedName string, observer runtime.RunObserver) ([32]byte, time.Duration, error) {
		g := dense.Cholesky(*build())
		res.Tasks = len(g.Tasks)
		s, err := NewScheduler(schedName)
		if err != nil {
			return [32]byte{}, 0, err
		}
		start := time.Now()
		r, err := sim.Run(m, g, s, runtime.WithSeed(23), runtime.WithObserver(observer))
		elapsed := time.Since(start)
		if err != nil {
			return [32]byte{}, 0, err
		}
		return sha256.Sum256(r.Trace.Canonical()), elapsed, nil
	}
	minOver := func(schedName string, mkObserver func() runtime.RunObserver) ([32]byte, float64, error) {
		var best time.Duration
		var digest [32]byte
		for i := 0; i < reps; i++ {
			d, el, err := runOnce(schedName, mkObserver())
			if err != nil {
				return digest, 0, err
			}
			if i == 0 || el < best {
				best = el
			}
			digest = d
		}
		return digest, float64(best.Nanoseconds()) / 1e6, nil
	}

	for _, name := range telemetrySchedulers {
		bareDigest, bareMs, err := minOver(name, func() runtime.RunObserver { return nil })
		if err != nil {
			return nil, fmt.Errorf("telemetry/%s bare: %w", name, err)
		}
		obsDigest, obsMs, err := minOver(name, func() runtime.RunObserver { return telemetry.NewProbe() })
		if err != nil {
			return nil, fmt.Errorf("telemetry/%s observed: %w", name, err)
		}
		// Capture mode adds decision retention and a JSONL export per
		// run — the full export-pipeline cost.
		var capMs float64
		{
			var best time.Duration
			for i := 0; i < reps; i++ {
				p := telemetry.NewProbe(telemetry.WithDecisionCapture(1 << 20))
				g := dense.Cholesky(*build())
				s, err := NewScheduler(name)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				if _, err := sim.Run(m, g, s, runtime.WithSeed(23), runtime.WithObserver(p)); err != nil {
					return nil, fmt.Errorf("telemetry/%s capture: %w", name, err)
				}
				if err := telemetry.ExportJSONL(io.Discard, p); err != nil {
					return nil, fmt.Errorf("telemetry/%s export: %w", name, err)
				}
				if el := time.Since(start); i == 0 || el < best {
					best = el
				}
			}
			capMs = float64(best.Nanoseconds()) / 1e6
		}

		neutral := bytes.Equal(bareDigest[:], obsDigest[:])
		res.Rows = append(res.Rows, TelemetryRow{Scheduler: name,
			BareMs: bareMs, ObservedMs: obsMs, CaptureMs: capMs, Neutral: neutral})
		if !neutral {
			return nil, fmt.Errorf("telemetry/%s: observed run diverged from bare run — telemetry perturbed scheduling", name)
		}
		if progress != nil {
			fmt.Fprintf(progress, ".")
		}
	}
	if progress != nil {
		fmt.Fprintln(progress)
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
