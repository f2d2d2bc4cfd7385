package schedtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/stream"
)

// streamWorkloads is the streaming conformance pair: the dense tiled
// factorization (deep dependency chains that outlive their arrival
// instants) and the random layered DAG (commute accesses, irregular
// fan-out). Both come from the batch conformance set so digests are
// comparable across suites.
func streamWorkloads(m *platform.Machine) []struct {
	name  string
	build func() *runtime.Graph
} {
	all := conformanceWorkloads(m)
	return []struct {
		name  string
		build func() *runtime.Graph
	}{all[0], all[3]} // cholesky, randdag
}

// streamPlanFor builds the deterministic streaming scenario of the
// conformance suite for one workload: three tenants over contiguous
// ID blocks, Poisson arrivals at load factor 1 against the workload's
// batch horizon, and a per-tenant in-flight limit that forces real
// admission deferrals.
func streamPlanFor(t testing.TB, g *runtime.Graph, horizon float64) *stream.Plan {
	plan := stream.SplitEven(len(g.Tasks), 3)
	counts := plan.TasksOf()
	spec := &stream.ArrivalSpec{Seed: 99, Tenants: make([]stream.TenantArrivals, 3)}
	for k := range spec.Tenants {
		spec.Tenants[k] = stream.TenantArrivals{
			Rate:  float64(counts[k]) / horizon,
			Shape: stream.Poisson,
		}
	}
	if err := spec.Generate(plan); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for k := range plan.Limits {
		plan.Limits[k] = 4
	}
	return plan
}

// batchHorizon fixes each workload's time scale once (the batch makespan
// under eager), so arrival rates are meaningful for every policy.
func batchHorizon(t testing.TB, m *platform.Machine, build func() *runtime.Graph) float64 {
	g := build()
	pol := policies[len(policies)-1] // eager
	res, err := sim.Run(m, g, pol.mk())
	if err != nil {
		t.Fatalf("batch horizon run: %v", err)
	}
	return res.Makespan
}

// TestStreamDeterminism runs every policy over the streaming workloads
// under the Fair admission wrapper: the run must satisfy the oracle
// including StreamCheck (arrival gating, per-tenant exactly-once,
// in-flight bound, starvation replay), and a rebuilt graph with a fresh
// wrapper under the same seed and arrival plan must reproduce the trace
// byte for byte — arrival events linearize in the simulator's event
// order like everything else.
func TestStreamDeterminism(t *testing.T) {
	m := conformanceMachine()
	for _, w := range streamWorkloads(m) {
		w := w
		horizon := batchHorizon(t, m, w.build)
		for _, pol := range policies {
			pol := pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				run := func() (*runtime.Graph, *stream.Plan, *stream.Fair, *sim.Result) {
					g := w.build()
					plan := streamPlanFor(t, g, horizon)
					fair := stream.NewFair(pol.mk(), plan)
					res, err := sim.Run(m, g, fair,
						runtime.WithMemEvents(),
						runtime.WithArrivals(plan.Arrivals))
					if err != nil {
						t.Fatalf("sim.Run: %v", err)
					}
					return g, plan, fair, res
				}
				g, plan, fair, res := run()
				if err := oracle.Check(g, res.Trace, oracle.Options{
					OverflowBytes: res.OverflowBytes,
					Stream:        &oracle.StreamCheck{Plan: plan, Admissions: fair.AdmissionLog()},
				}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if err := checkRunState(res); err != nil {
					t.Fatalf("run state: %v", err)
				}
				_, _, _, res2 := run()
				if !bytes.Equal(res.Trace.Canonical(), res2.Trace.Canonical()) {
					t.Fatalf("same seed and arrival plan produced a different trace (%d vs %d bytes)",
						len(res.Trace.Canonical()), len(res2.Trace.Canonical()))
				}
			})
		}
	}
}

// TestStreamTraceGolden pins the SHA-256 digest of the canonical trace
// of every streaming conformance run, the streaming counterpart of
// TestCanonicalTraceGolden: any drift in arrival handling, admission
// order or scheduling under load shows up as a digest mismatch.
// Regenerate after intentional changes with
// `go test ./internal/sched/schedtest -run TestStreamTraceGolden -update`.
func TestStreamTraceGolden(t *testing.T) {
	m := conformanceMachine()
	var got bytes.Buffer
	for _, w := range streamWorkloads(m) {
		horizon := batchHorizon(t, m, w.build)
		for _, pol := range policies {
			g := w.build()
			plan := streamPlanFor(t, g, horizon)
			fair := stream.NewFair(pol.mk(), plan)
			res, err := sim.Run(m, g, fair,
				runtime.WithMemEvents(),
				runtime.WithArrivals(plan.Arrivals))
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, pol.name, err)
			}
			fmt.Fprintf(&got, "%s/%s %x\n", w.name, pol.name, sha256.Sum256(res.Trace.Canonical()))
		}
	}
	path := filepath.Join("testdata", "stream_sha256.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update to create): %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("streaming trace digest drifted at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// FuzzStreamConformance decodes the fuzzer's bytes into an arrival plan
// (tenant count, rates, shape, burst length, admission limits) over a
// random layered DAG and a policy, and demands the streaming run pass
// every oracle invariant including StreamCheck. A policy or the
// admission wrapper losing, double-running or starving a task under any
// arrival pattern is a bug, never fuzzer noise.
func FuzzStreamConformance(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(8), uint8(3), uint8(50), uint8(1), uint8(4), uint8(3), uint8(0))
	f.Add(int64(2), uint8(3), uint8(12), uint8(1), uint8(10), uint8(2), uint8(8), uint8(0), uint8(4))
	f.Add(int64(3), uint8(8), uint8(5), uint8(5), uint8(200), uint8(0), uint8(2), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, layers, width, tenantsB, rateB, shapeB, burstB, limitB, schedIdx uint8) {
		m, err := platform.NewHeteroNode("fuzzs", 4, 10, 1, 100, 8*platform.MiB, 5e9, platform.Config{})
		if err != nil {
			t.Skip("unbuildable machine shape")
		}
		g := randdag.Build(randdag.Params{
			Layers:       1 + int(layers%8),
			Width:        1 + int(width%12),
			EdgeProb:     0.3,
			GPUShare:     0.4,
			CommuteShare: 0.2,
			MeanCost:     1e-3,
			Machine:      m,
			Seed:         seed,
		})
		tenants := 1 + int(tenantsB%5)
		plan := stream.SplitEven(len(g.Tasks), tenants)
		spec := &stream.ArrivalSpec{Seed: uint64(seed) + 1, Tenants: make([]stream.TenantArrivals, tenants)}
		for k := range spec.Tenants {
			spec.Tenants[k] = stream.TenantArrivals{
				// 10..2560 tasks/s: from arrival-dominated (the machine
				// idles between tasks) to compute-dominated regimes.
				Rate:     float64(1+int(rateB)) * 10,
				Shape:    stream.Shape(int(shapeB) % 3),
				BurstLen: 2 + int(burstB%8),
			}
		}
		if err := spec.Generate(plan); err != nil {
			t.Fatalf("Generate: %v", err)
		}
		for k := range plan.Limits {
			plan.Limits[k] = int(limitB % 5) // 0 = unbounded
		}
		pol := policies[int(schedIdx)%len(policies)]
		fair := stream.NewFair(pol.mk(), plan)
		res, err := sim.Run(m, g, fair,
			runtime.WithMemEvents(),
			runtime.WithMaxEvents(2_000_000),
			runtime.WithArrivals(plan.Arrivals))
		if err != nil {
			t.Fatalf("fair(%s) failed to complete a valid streamed DAG: %v", pol.name, err)
		}
		if err := oracle.Check(g, res.Trace, oracle.Options{
			OverflowBytes: res.OverflowBytes,
			Stream:        &oracle.StreamCheck{Plan: plan, Admissions: fair.AdmissionLog()},
		}); err != nil {
			t.Fatalf("fair(%s): %v", pol.name, err)
		}
		if err := checkRunState(res); err != nil {
			t.Fatalf("fair(%s): %v", pol.name, err)
		}
	})
}
