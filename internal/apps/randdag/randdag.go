// Package randdag generates layered random task graphs in the spirit of
// the STG benchmark suite (Tobita & Kasahara): configurable width,
// depth, edge density, architecture-affinity mix and granularity
// spread. The paper's applications cover three structured DAG families;
// random graphs complement them as a robustness check — a scheduler
// that only wins on structured DAGs has overfit.
package randdag

import (
	"fmt"
	"math"
	"math/rand"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Params configures one random DAG.
type Params struct {
	// Layers and Width shape the graph: Width tasks per layer.
	Layers, Width int
	// EdgeProb is the probability of a dependency from a task to each
	// task of the next layer (via shared data handles). Defaults 0.25.
	EdgeProb float64
	// GPUShare is the fraction of tasks with a (strongly accelerated)
	// GPU implementation; the rest are CPU-only. Defaults 0.5.
	GPUShare float64
	// GranularitySpread is the ratio between the largest and smallest
	// task costs (log-uniform). Defaults 10.
	GranularitySpread float64
	// CommuteShare is the fraction of tasks that additionally update a
	// shared accumulator handle in Commute mode (TBFMM-style force
	// reductions), exercising the engines' execution-time mutual
	// exclusion. Default 0.
	CommuteShare float64
	// TypedFraction restricts a fraction of the accelerated tasks to the
	// GPU class alone (TypedDAG-style affinity constraints): a typed task
	// loses its CPU implementation, so only GPU workers are capable and
	// every scheduler must honor the mask. Default 0 — and like
	// CommuteShare, 0 draws no extra randoms, leaving existing seeds'
	// graphs untouched.
	TypedFraction float64
	// MeanCost is the average CPU execution time in seconds. Defaults
	// 5 ms.
	MeanCost float64
	Machine  *platform.Machine
	Seed     int64
}

func (p Params) defaults() Params {
	if p.EdgeProb <= 0 {
		p.EdgeProb = 0.25
	}
	if p.GPUShare < 0 {
		p.GPUShare = 0
	} else if p.GPUShare == 0 {
		p.GPUShare = 0.5
	}
	if p.GranularitySpread < 1 {
		p.GranularitySpread = 10
	}
	if p.MeanCost <= 0 {
		p.MeanCost = 5e-3
	}
	return p
}

// Build generates the graph. Deterministic per seed.
func Build(p Params) *runtime.Graph {
	if p.Machine == nil {
		panic("randdag: nil machine")
	}
	if p.Layers < 1 || p.Width < 1 {
		panic(fmt.Sprintf("randdag: %d layers x %d width", p.Layers, p.Width))
	}
	p = p.defaults()
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Layers * p.Width
	nh := n
	if p.CommuteShare > 0 {
		nh++
	}
	g := runtime.NewGraphWithCapacity(n, nh)
	b := g.NewBatch(n)

	// Commuting tasks all update one shared accumulator; created lazily
	// so CommuteShare == 0 leaves the random stream of existing seeds
	// untouched.
	var accum *runtime.DataHandle
	if p.CommuteShare > 0 {
		accum = g.NewData("acc", 4096)
	}

	// One output handle per task (task i of layer l owns outs[l*Width+i]);
	// an edge is expressed as the consumer reading the producer's output.
	outs := make([]*runtime.DataHandle, n)
	for l := 0; l < p.Layers; l++ {
		for i := 0; i < p.Width; i++ {
			outs[l*p.Width+i] = b.NewData(int64(rng.Intn(1<<20)+4096), "d%d.%d", l, i)
		}
	}

	// Specs are generated up front (same RNG draw order as the former
	// per-task Submit loop) and submitted in one batch, their access
	// lists and cost rows carved from the batch's slabs: for million-task
	// graphs this is the difference between a dozen allocations per task
	// and a handful of arena chunks.
	var acc []runtime.Access
	spreadLog := math.Log(p.GranularitySpread)
	for l := 0; l < p.Layers; l++ {
		for i := 0; i < p.Width; i++ {
			// Log-uniform cost in [mean/sqrt(spread), mean*sqrt(spread)].
			f := math.Exp((rng.Float64() - 0.5) * spreadLog)
			cpu := p.MeanCost * f
			cost := b.Cost(len(p.Machine.Archs))
			cost[platform.ArchCPU] = cpu
			kind := "host"
			if int(platform.ArchGPU) < len(p.Machine.Archs) && rng.Float64() < p.GPUShare {
				// 10-40x accelerated, plus a launch floor.
				cost[platform.ArchGPU] = cpu/(10+30*rng.Float64()) + 1e-5
				kind = "accel"
				if p.TypedFraction > 0 && rng.Float64() < p.TypedFraction {
					cost[platform.ArchCPU] = 0 // GPU-only: CPU not capable
					kind = "typed"
				}
			}
			acc = append(acc[:0], runtime.Access{Handle: outs[l*p.Width+i], Mode: runtime.W})
			if l > 0 {
				for _, h := range outs[(l-1)*p.Width : l*p.Width] {
					if rng.Float64() < p.EdgeProb {
						acc = append(acc, runtime.Access{Handle: h, Mode: runtime.R})
					}
				}
			}
			if accum != nil && rng.Float64() < p.CommuteShare {
				acc = append(acc, runtime.Access{Handle: accum, Mode: runtime.Commute})
			}
			b.Add(runtime.TaskSpec{
				Kind:      kind,
				Footprint: uint64(10 * math.Round(cpu*1e4)), // bucketed by size
				Flops:     cpu * 1e9,
				Cost:      cost,
				Accesses:  b.Accesses(acc...),
				Priority:  rng.Intn(100),
			})
		}
	}
	b.Submit()
	return g
}
