package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/runtime"
)

// StressResult is the random-DAG robustness study: every scheduler over
// an ensemble of layered random graphs with mixed affinities and
// granularities, reported as the geometric mean of the makespan
// normalized to the per-instance best. A scheduler that only wins on
// the structured paper workloads would show up here.
type StressResult struct {
	Instances int
	// GeoMean[sched] is the geometric mean normalized makespan
	// (1.0 = best on every instance).
	GeoMean map[string]float64
	// Wins[sched] counts instances where the scheduler was strictly
	// fastest.
	Wins map[string]int
}

// stressSchedulers is the comparison set plus the simple baselines.
func stressSchedulers() []string {
	return []string{"multiprio", "dmdas", "heteroprio", "lws", "prio", "eager"}
}

// RunStress executes the ensemble on the sweep worker pool: one graph
// per instance, one configuration per (instance, scheduler) pair,
// reduced serially in instance order.
func RunStress(c *Ctx) (*StressResult, error) {
	m, err := PlatformByName("intel-v100", 1)
	if err != nil {
		return nil, err
	}
	instances := 10
	layers, width := 8, 24
	if c.Scale == Full {
		instances = 30
		layers, width = 12, 40
	}
	var ws []workload
	for seed := int64(1); seed <= int64(instances); seed++ {
		ws = append(ws, newWorkload(fmt.Sprintf("seed %d", seed), m, func() (*runtime.Graph, error) {
			return randdag.Build(randdag.Params{
				Layers: layers, Width: width,
				GranularitySpread: 50,
				Machine:           m, Seed: seed,
			}), nil
		}))
	}
	scheds := stressSchedulers()
	makespans, err := c.makespans(ws, scheds)
	if err != nil {
		return nil, err
	}
	logSum := make(map[string]float64, len(scheds))
	wins := make(map[string]int, len(scheds))
	for inst := 0; inst < instances; inst++ {
		times := gridRow(makespans, inst, scheds)
		best := math.Inf(1)
		for _, t := range times {
			best = min(best, t)
		}
		var winner string
		winT := math.Inf(1)
		for _, name := range scheds {
			logSum[name] += math.Log(times[name] / best)
			if times[name] < winT {
				winner, winT = name, times[name]
			}
		}
		wins[winner]++
	}
	res := &StressResult{
		Instances: instances,
		GeoMean:   make(map[string]float64, len(scheds)),
		Wins:      wins,
	}
	for _, name := range scheds {
		res.GeoMean[name] = math.Exp(logSum[name] / float64(instances))
	}
	return res, nil
}

// Print renders the robustness table sorted by geometric mean.
func (r *StressResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Random-DAG robustness: %d layered STG-style instances, mixed affinity and granularity\n", r.Instances)
	fmt.Fprintf(w, "%-12s %18s %6s\n", "scheduler", "geomean vs best", "wins")
	rule(w, 40)
	type row struct {
		name string
		gm   float64
	}
	rows := make([]row, 0, len(r.GeoMean))
	for n, gm := range r.GeoMean {
		rows = append(rows, row{n, gm})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].gm < rows[j].gm })
	for _, rr := range rows {
		fmt.Fprintf(w, "%-12s %17.3fx %6d\n", rr.name, rr.gm, r.Wins[rr.name])
	}
}
