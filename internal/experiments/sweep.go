package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"multiprio/internal/runtime"
)

// SweepSeed derives the RNG seed of sweep configuration idx from a base
// seed with a splitmix64 mix: a function of (base, idx) only, never of
// a shared RNG stream, so it does not depend on the order in which
// configurations execute. Its one caller is the stream study's arrival
// process (stream.ArrivalSpec.Seed); the simulator itself takes no seed.
func SweepSeed(base int64, idx int) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + (uint64(idx)+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// sweep runs jobs independent configurations on a pool of c.Workers
// goroutines and returns their results indexed by configuration. Jobs
// must not share mutable state: each makes its own scheduler, and what
// they share is read-only — platform machines, which are immutable after
// construction, and workload graphs, which are validated before the
// first job reads them.
// The result slice is always in configuration order, so reductions over
// it are deterministic no matter how the pool interleaved execution.
// One progress dot is written per completed configuration and a newline
// once the pool has drained. On error the pool stops picking up new
// configurations and the error of the lowest-indexed failed
// configuration is returned.
func sweep[T any](c *Ctx, jobs int, run func(idx int) (T, error)) ([]T, error) {
	out := make([]T, jobs)
	errs := make([]error, jobs)
	workers := max(1, min(c.Workers, jobs))
	var next atomic.Int64
	var failed atomic.Bool
	var progMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= jobs || failed.Load() {
					return
				}
				out[i], errs[i] = run(i)
				if errs[i] != nil {
					failed.Store(true)
					return
				}
				if c.Progress != nil {
					progMu.Lock()
					fmt.Fprint(c.Progress, ".")
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if c.Progress != nil {
		fmt.Fprintln(c.Progress)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// grid runs cell once per (workload, column) pair on the sweep pool,
// workloads outermost, and returns the results in that order. The first
// cell of a workload to run builds its graph; the others wait for it and
// share it.
func grid[T any](c *Ctx, ws []workload, cols int, cell func(w workload, g *runtime.Graph, col int) (T, error)) ([]T, error) {
	return sweep(c, len(ws)*cols, func(i int) (T, error) {
		w := ws[i/cols]
		g, err := w.graph()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("%s: %w", w.name, err)
		}
		return cell(w, g, i%cols)
	})
}

// gridRow maps row r of a grid's results, one column per name, to
// name -> value.
func gridRow(vals []float64, r int, names []string) map[string]float64 {
	row := make(map[string]float64, len(names))
	for i, name := range names {
		row[name] = vals[r*len(names)+i]
	}
	return row
}
