package schedtest

import (
	"fmt"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

// FuzzSchedulerConformance decodes the fuzzer's bytes into a random
// layered DAG, a platform shape, and a scheduling policy, then demands
// that the simulated run satisfies every oracle invariant. Any valid
// graph a policy fails to complete — or completes while violating
// dependencies, commute exclusivity, coherence, or capacity — is a bug
// in the policy or the engine, never acceptable fuzzer noise.
func FuzzSchedulerConformance(f *testing.F) {
	// Seed corpus spanning the paper's DAG families: dense-like (deep,
	// well-connected), FMM-like (shallow, wide, commute-heavy, strongly
	// GPU-offloaded), sparse-QR-like (deep and narrow, mixed
	// granularity), and a CPU-only platform with a single-GPU shape's
	// worth of tasks still carrying GPU affinities.
	f.Add(int64(1), uint8(6), uint8(8), uint8(25), uint8(50), uint8(0), uint8(3), uint8(2), uint8(8), uint8(0))
	f.Add(int64(2), uint8(2), uint8(12), uint8(5), uint8(80), uint8(40), uint8(4), uint8(1), uint8(2), uint8(1))
	f.Add(int64(3), uint8(8), uint8(4), uint8(60), uint8(30), uint8(0), uint8(1), uint8(2), uint8(16), uint8(4))
	f.Add(int64(4), uint8(5), uint8(6), uint8(25), uint8(90), uint8(20), uint8(6), uint8(0), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, layers, width, edgePct, gpuPct, commutePct, nCPU, nGPU, gpuMemMiB, schedIdx uint8) {
		gpus := int(nGPU % 3)
		// NewHeteroNode reserves one driver core per GPU; keep at least
		// two plain CPU workers beyond those.
		cpus := 2 + int(nCPU%5) + gpus
		// Tiny device memories force eviction, writeback, and overflow
		// paths; randdag handles are up to 1 MiB each.
		gpuMem := int64(1+gpuMemMiB%32) * platform.MiB
		m, err := platform.NewHeteroNode("fuzz", cpus, 10, gpus, 100, gpuMem, 5e9, platform.Config{})
		if err != nil {
			t.Skip("unbuildable machine shape")
		}
		g := randdag.Build(randdag.Params{
			Layers:       1 + int(layers%8),
			Width:        1 + int(width%12),
			EdgeProb:     float64(edgePct%100)/100 + 0.01,
			GPUShare:     gpuShare(gpuPct),
			CommuteShare: float64(commutePct%101) / 100,
			MeanCost:     1e-3,
			Machine:      m,
			Seed:         seed,
		})
		pol := policies[int(schedIdx)%len(policies)]
		res, err := sim.Run(m, g, pol.mk(), runtime.WithMemEvents(), runtime.WithMaxEvents(2_000_000))
		if err != nil {
			t.Fatalf("%s failed to complete a valid DAG: %v", pol.name, err)
		}
		if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		if err := checkRunState(res); err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
	})
}

// FuzzClusterConformance is the multi-node counterpart: the fuzzer's
// bytes pick a 2–4 node cluster topology (node shape, interconnect
// speed) and an inner policy, the DAG runs through the two-level
// distributor, and the oracle — including the inter-node transfer
// replay, active because the machine is a multi-node cluster with
// memory events collected — must accept the run.
func FuzzClusterConformance(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(1), uint8(8), uint8(6), uint8(8), uint8(25), uint8(40), uint8(0))
	f.Add(int64(2), uint8(3), uint8(2), uint8(0), uint8(2), uint8(3), uint8(10), uint8(70), uint8(0), uint8(3))
	f.Add(int64(3), uint8(4), uint8(4), uint8(2), uint8(16), uint8(8), uint8(4), uint8(50), uint8(20), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nNodes, nCPU, nGPU, gpuMemMiB, layers, width, gpuPct, commutePct, schedIdx uint8) {
		nodes := 2 + int(nNodes%3)
		gpus := int(nGPU % 3)
		cpus := 2 + int(nCPU%5) + gpus
		gpuMem := int64(1+gpuMemMiB%32) * platform.MiB
		m, err := platform.UniformCluster("fuzzc", nodes, func(i int) (*platform.Machine, error) {
			return platform.NewHeteroNode(fmt.Sprintf("fn%d", i), cpus, 10, gpus, 100, gpuMem, 5e9, platform.Config{})
		}, 2e9, 2e-5)
		if err != nil {
			t.Skip("unbuildable cluster shape")
		}
		g := randdag.Build(randdag.Params{
			Layers:       1 + int(layers%8),
			Width:        1 + int(width%12),
			EdgeProb:     0.3,
			GPUShare:     gpuShare(gpuPct),
			CommuteShare: float64(commutePct%101) / 100,
			MeanCost:     1e-3,
			Machine:      m,
			Seed:         seed,
		})
		pol := policies[int(schedIdx)%len(policies)]
		sched := distribOf(t, pol.name)
		res, err := sim.Run(m, g, sched, runtime.WithMemEvents(), runtime.WithMaxEvents(4_000_000))
		if err != nil {
			t.Fatalf("distrib:%s failed to complete a valid DAG on %d nodes: %v", pol.name, nodes, err)
		}
		if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
			t.Fatalf("distrib:%s on %d nodes: %v", pol.name, nodes, err)
		}
		if err := checkRunState(res); err != nil {
			t.Fatalf("distrib:%s on %d nodes: %v", pol.name, nodes, err)
		}
	})
}

// gpuShare maps a fuzzed byte to randdag's GPUShare. A share of 0 there
// means the default one half, so a fuzzed 0 % asks for no GPU tasks by
// a negative share instead.
func gpuShare(pct uint8) float64 {
	if s := float64(pct%101) / 100; s > 0 {
		return s
	}
	return -1
}
