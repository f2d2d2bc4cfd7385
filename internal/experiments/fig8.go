package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/runtime"
)

// Fig8Point is one (platform, matrix) measurement: performance of every
// scheduler relative to Dmdas (ratio > 1 means faster than Dmdas, the
// figure's y-axis).
type Fig8Point struct {
	Platform string
	Matrix   string
	// Times[sched] is the makespan; Ratio[sched] = dmdas / sched.
	Times map[string]float64
	Ratio map[string]float64
}

// Fig8Result reproduces the paper's Fig. 8: sparse multifrontal QR over
// the Fig. 7 matrix set with 4 GPU streams, performance relative to
// Dmdas. Paper headline: MultiPrio gains on average 31% on Intel-V100
// and 12% (up to 20% on the larger matrices) on AMD-A100.
type Fig8Result struct {
	Points []Fig8Point
}

// RunFig8 runs the full matrix sweep on both platforms: one graph per
// (platform, matrix), built from the matrix's synthesized assembly tree
// and run under the three schedulers.
func RunFig8(c *Ctx) (*Fig8Result, error) {
	matrices := sparseqr.Matrices
	if c.Scale == Quick {
		matrices = matrices[:6] // the smaller op counts
	}
	res := &Fig8Result{}
	var ws []workload
	for _, pf := range []string{"intel-v100", "amd-a100"} {
		m, err := PlatformByName(pf, 4) // "we use four streams on each GPU"
		if err != nil {
			return nil, err
		}
		for _, stats := range matrices {
			res.Points = append(res.Points, Fig8Point{Platform: pf, Matrix: stats.Name, Ratio: make(map[string]float64)})
			ws = append(ws, newWorkload(pf+" "+stats.Name, m, func() (*runtime.Graph, error) {
				return sparseqr.BuildFromTree(sparseqr.BuildTree(stats), sparseqr.Params{Machine: m}), nil
			}))
		}
	}
	scheds := SchedulerNames()
	times, err := c.makespans(ws, scheds)
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		pt := &res.Points[i]
		pt.Times = gridRow(times, i, scheds)
		for s, t := range pt.Times {
			if t > 0 {
				pt.Ratio[s] = pt.Times["dmdas"] / t
			}
		}
	}
	return res, nil
}

// Print renders the figure as per-platform ratio tables.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 8: sparse QR, performance relative to Dmdas (higher is better)")
	cur := ""
	for _, p := range r.Points {
		if p.Platform != cur {
			cur = p.Platform
			fmt.Fprintf(w, "\n[%s]\n", cur)
			fmt.Fprintf(w, "%-14s | %10s %10s %10s\n", "matrix", "multiprio", "dmdas", "heteroprio")
			rule(w, 52)
		}
		fmt.Fprintf(w, "%-14s | %10.3f %10.3f %10.3f\n",
			p.Matrix, p.Ratio["multiprio"], p.Ratio["dmdas"], p.Ratio["heteroprio"])
	}
	fmt.Fprintf(w, "\nMultiPrio average gain: intel-v100 %+.1f%%, amd-a100 %+.1f%%\n",
		r.AverageGain("intel-v100"), r.AverageGain("amd-a100"))
	fmt.Fprintln(w, "paper: +31% on Intel-V100; +12% (up to +20% on large matrices) on AMD-A100")
}

// AverageGain returns MultiPrio's mean gain over Dmdas in percent on one
// platform.
func (r *Fig8Result) AverageGain(platformName string) float64 {
	var sum float64
	var n int
	for _, p := range r.Points {
		if p.Platform != platformName {
			continue
		}
		sum += (p.Ratio["multiprio"] - 1) * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
