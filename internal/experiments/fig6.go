package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/apps/fmm"
)

// Fig6Point is one (platform, streams, scheduler) FMM execution time.
type Fig6Point struct {
	Platform string
	Streams  int
	Times    map[string]float64 // scheduler -> seconds
}

// Fig6Result reproduces the paper's Fig. 6: TBFMM execution time on both
// platforms while varying the number of GPU streams; the paper reports
// MultiPrio achieving the shortest makespan because the disconnected
// DAG rewards workload balancing plus per-task affinity scores.
type Fig6Result struct {
	Particles int
	Height    int
	Points    []Fig6Point
}

// RunFig6 executes the sweep on the worker pool. The octree depends only
// on the particle distribution (not on the platform or stream count), so
// it is built once and shared read-only across the configurations.
func RunFig6(c *Ctx) (*Fig6Result, error) {
	particles, height := 1_000_000, 6
	if c.Scale == Quick {
		particles, height = 150_000, 5
	}
	res := &Fig6Result{Particles: particles, Height: height}
	type job struct {
		point    int
		platform string
		streams  int
		sched    string
	}
	var jobs []job
	for _, pf := range []string{"intel-v100", "amd-a100"} {
		for _, streams := range []int{1, 2, 4} {
			res.Points = append(res.Points, Fig6Point{
				Platform: pf, Streams: streams, Times: make(map[string]float64),
			})
			for _, schedName := range SchedulerNames() {
				jobs = append(jobs, job{
					point: len(res.Points) - 1, platform: pf,
					streams: streams, sched: schedName,
				})
			}
		}
	}
	// The clustered ensemble: TBFMM's target workloads are non-uniform
	// particle distributions, and per-task affinity scores only
	// differentiate from per-type ones when task costs vary within a
	// type.
	baseParams := fmm.Params{Particles: particles, Height: height, Clustered: true, Seed: 12}
	tree := fmm.BuildTree(baseParams)
	times, err := sweep(c, len(jobs), func(i int) (float64, error) {
		j := jobs[i]
		m, err := PlatformByName(j.platform, j.streams)
		if err != nil {
			return 0, err
		}
		p := baseParams
		p.Machine = m
		g := fmm.BuildFromTree(p, tree)
		r, err := c.runOne(m, g, j.sched)
		if err != nil {
			return 0, fmt.Errorf("%s streams=%d %s: %w", j.platform, j.streams, j.sched, err)
		}
		return r.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		res.Points[j.point].Times[j.sched] = times[i]
	}
	return res, nil
}

// Print renders the figure as a table of execution times.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 6: TBFMM execution time (%d particles, tree height %d)\n", r.Particles, r.Height)
	fmt.Fprintf(w, "%-12s %8s | %11s %11s %11s | best\n", "platform", "streams", "multiprio", "dmdas", "heteroprio")
	rule(w, 72)
	for _, p := range r.Points {
		best, bestT := "", 0.0
		for s, t := range p.Times {
			if best == "" || t < bestT {
				best, bestT = s, t
			}
		}
		fmt.Fprintf(w, "%-12s %8d | %10.4fs %10.4fs %10.4fs | %s\n",
			p.Platform, p.Streams,
			p.Times["multiprio"], p.Times["dmdas"], p.Times["heteroprio"], best)
	}
	fmt.Fprintln(w, "paper: MultiPrio achieves the shortest makespan on both platforms")
}
