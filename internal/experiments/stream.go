package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
	"multiprio/internal/stream"
	"multiprio/internal/telemetry"
)

// TenantMetrics is the per-tenant service quality of one streaming
// cell: queue-time percentiles (push-to-start, i.e. admission wait plus
// scheduler queueing) and sustained throughput over the tenant's active
// window (first arrival to last completion).
type TenantMetrics struct {
	Tenant     string
	P50, P99   float64
	Throughput float64
	Deferred   int
}

// StreamCell is one (load, shape, skew, scheduler) measurement of the
// streaming study.
type StreamCell struct {
	Rho       float64
	Shape     string
	Skew      string
	Scheduler string
	Makespan  float64
	Tenants   []TenantMetrics
	// OracleOK reports the run passed the execution oracle including
	// StreamCheck (arrival gating, per-tenant exactly-once, in-flight
	// bound, no cross-tenant starvation).
	OracleOK bool
}

// StreamResult is the -exp stream study: multi-tenant online ingestion
// under an arrival-rate sweep (load factor ρ) × arrival shape (uniform
// vs bursty) × tenant skew, per scheduler, every cell oracle-validated.
type StreamResult struct {
	Tenants int
	Limit   int
	Cells   []StreamCell
}

// streamSchedulers is the comparison set of the streaming study: the
// paper's policy, the locality baseline and the greedy baseline.
var streamSchedulers = []string{"multiprio", "dmdas", "eager"}

// RunStream executes the streaming study. T tenants each own a randdag
// subgraph; Combine merges them, a batch run fixes the horizon M, and
// each cell streams the combined DAG with per-tenant rates chosen so
// tenant k submits its subgraph over M/(ρ·s_k) seconds (s_k the skew
// multiplier) through the Fair admission wrapper.
func RunStream(c *Ctx) (*StreamResult, error) {
	tenants, layers, width, limit := 3, 6, 8, 8
	if c.Scale == Full {
		tenants, layers, width, limit = 4, 10, 16, 12
	}
	m, err := platform.NewHeteroNode("tenants", 4, 10, 2, 100, 64*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		return nil, err
	}
	build := func() (*runtime.Graph, *stream.Plan, error) {
		subs := make([]*runtime.Graph, tenants)
		for k := range subs {
			subs[k] = randdag.Build(randdag.Params{Layers: layers, Width: width,
				CommuteShare: 0.2, Machine: m, Seed: int64(31 + 7*k)})
		}
		return stream.Combine(subs...)
	}

	// Batch horizon: the makespan with everything available at t=0 fixes
	// the time scale the load factor ρ is expressed against.
	gBase, planBase, err := build()
	if err != nil {
		return nil, err
	}
	// With a telemetry observer attached (-serve/-export), attribute
	// tasks to their tenants so the per-tenant histograms fill with real
	// labels. The partition is deterministic and identical across cells,
	// so one representative plan covers the whole sweep.
	if tp, ok := c.Observer.(*telemetry.Probe); ok && tp != nil {
		tp.SetTenantFunc(func(id int64) string {
			return planBase.Name(planBase.Tenant(id))
		})
	}
	base, err := c.runOne(m, gBase, "dmdas")
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	horizon := base.Makespan

	skews := []struct {
		name string
		mult []float64 // cycled over tenants
	}{
		{"even", []float64{1}},
		{"skewed", []float64{4, 1, 0.25}},
	}
	shapes := []struct {
		name  string
		shape stream.Shape
		burst int
	}{
		{"uniform", stream.Uniform, 0},
		{"bursty", stream.Bursty, 6},
	}
	rhos := []float64{0.5, 2}

	type cfg struct {
		rho   int
		shape int
		skew  int
		sched int
	}
	var cfgs []cfg
	for r := range rhos {
		for sh := range shapes {
			for sk := range skews {
				for s := range streamSchedulers {
					cfgs = append(cfgs, cfg{r, sh, sk, s})
				}
			}
		}
	}
	rows, err := sweep(c, len(cfgs), func(idx int) (StreamCell, error) {
		cf := cfgs[idx]
		rho, shape, skew, schedName := rhos[cf.rho], shapes[cf.shape], skews[cf.skew], streamSchedulers[cf.sched]
		label := fmt.Sprintf("rho=%g/%s/%s/%s", rho, shape.name, skew.name, schedName)

		g, plan, err := build()
		if err != nil {
			return StreamCell{}, fmt.Errorf("%s: %w", label, err)
		}
		counts := plan.TasksOf()
		spec := &stream.ArrivalSpec{Seed: uint64(SweepSeed(43, idx)), Tenants: make([]stream.TenantArrivals, tenants)}
		for k := range spec.Tenants {
			s := skew.mult[k%len(skew.mult)]
			spec.Tenants[k] = stream.TenantArrivals{
				Rate:     rho * s * float64(counts[k]) / horizon,
				Shape:    shape.shape,
				BurstLen: shape.burst,
			}
		}
		if err := spec.Generate(plan); err != nil {
			return StreamCell{}, fmt.Errorf("%s: %w", label, err)
		}
		for k := range plan.Limits {
			plan.Limits[k] = limit
		}
		fair, err := stream.New(schedName, plan, registry.Options{})
		if err != nil {
			return StreamCell{}, fmt.Errorf("%s: %w", label, err)
		}
		res, err := c.simulate(m, g, fair, runtime.WithArrivals(plan.Arrivals))
		if err != nil {
			return StreamCell{}, fmt.Errorf("%s: %w", label, err)
		}
		if err := oracle.Check(g, res.Trace, oracle.Options{
			OverflowBytes: res.OverflowBytes,
			Stream:        &oracle.StreamCheck{Plan: plan, Admissions: fair.AdmissionLog()},
		}); err != nil {
			return StreamCell{}, fmt.Errorf("%s: oracle: %w", label, err)
		}
		cell := StreamCell{
			Rho: rho, Shape: shape.name, Skew: skew.name, Scheduler: schedName,
			Makespan: res.Makespan, OracleOK: true,
		}
		// Admission statistics come off the engine Result (the Fair
		// wrapper implements runtime.StreamStatsReporter), not by
		// reaching into the scheduler.
		stats := res.Stream
		if stats == nil {
			return StreamCell{}, fmt.Errorf("%s: result carries no stream stats", label)
		}
		for k := 0; k < tenants; k++ {
			var queue []float64
			firstArrival, lastEnd := -1.0, 0.0
			n := 0
			for _, t := range g.Tasks {
				if plan.Tenant(t.ID) != k {
					continue
				}
				st := &res.Tasks[t.ID]
				queue = append(queue, st.StartAt-st.ReadyAt)
				if firstArrival < 0 || plan.Arrivals[t.ID] < firstArrival {
					firstArrival = plan.Arrivals[t.ID]
				}
				if st.EndAt > lastEnd {
					lastEnd = st.EndAt
				}
				n++
			}
			thr := 0.0
			if lastEnd > firstArrival {
				thr = float64(n) / (lastEnd - firstArrival)
			}
			cell.Tenants = append(cell.Tenants, TenantMetrics{
				Tenant:     plan.Name(k),
				P50:        percentile(queue, 0.50),
				P99:        percentile(queue, 0.99),
				Throughput: thr,
				Deferred:   stats.Deferred[k],
			})
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	return &StreamResult{Tenants: tenants, Limit: limit, Cells: rows}, nil
}

// percentile returns the q-quantile of values (nearest-rank on a sorted
// copy); 0 for an empty slice.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := int(math.Ceil(q * float64(len(s)-1)))
	return s[i]
}

// Print renders the study as one table per load factor.
func (r *StreamResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Online ingestion: %d tenants, per-tenant in-flight limit %d, Fair admission over each policy\n", r.Tenants, r.Limit)
	fmt.Fprintln(w, "(queue = push-to-start seconds per task; every cell oracle-validated incl. StreamCheck)")
	lastRho := -1.0
	for _, c := range r.Cells {
		if c.Rho != lastRho {
			fmt.Fprintf(w, "\nload rho=%g\n", c.Rho)
			rule(w, 30+28*len(c.Tenants))
			fmt.Fprintf(w, "%-8s %-7s %-10s %9s", "shape", "skew", "scheduler", "mksp(s)")
			for _, tm := range c.Tenants {
				fmt.Fprintf(w, " | %4s p50/p99/thr/defer", tm.Tenant)
			}
			fmt.Fprintf(w, " %7s\n", "oracle")
			lastRho = c.Rho
		}
		ok := "pass"
		if !c.OracleOK {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "%-8s %-7s %-10s %9.3f", c.Shape, c.Skew, c.Scheduler, c.Makespan)
		for _, tm := range c.Tenants {
			fmt.Fprintf(w, " | %6.3f/%6.3f/%5.1f/%3d", tm.P50, tm.P99, tm.Throughput, tm.Deferred)
		}
		fmt.Fprintf(w, " %7s\n", ok)
	}
}
