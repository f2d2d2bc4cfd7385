// Package dense generates the task graphs of tiled dense linear algebra
// routines — Cholesky (potrf), LU without pivoting (getrf) and QR
// (geqrf) — standing in for the CHAMELEON library used in the paper's
// Section VI-A. The DAG shapes, kernel mixes, data access modes and
// expert priorities match the classic tile algorithms (PLASMA/CHAMELEON
// right-looking variants).
//
// Kernel execution times follow a calibrated roofline-style model:
// flops divided by the architecture peak scaled with a per-kernel
// efficiency, where GPU efficiency additionally saturates with tile
// size (small tiles underutilize the device, the reason the paper
// sweeps tile sizes per platform).
package dense

import (
	"fmt"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Params configures one dense factorization DAG.
type Params struct {
	// Tiles is the matrix order in tiles (T×T tiles).
	Tiles int
	// TileSize is the tile order b (the matrix order is Tiles*TileSize).
	TileSize int
	// Machine provides the per-architecture peak rates of the cost
	// model.
	Machine *platform.Machine
	// UserPriorities emulates CHAMELEON's expert-tuned static task
	// priorities (consumed by the dmdas scheduler): bottom-level ranks
	// computed on the DAG.
	UserPriorities bool
	// Kernels attaches real Go compute kernels and tile payloads so the
	// graph can run on the threaded engine (Cholesky only).
	Kernels bool
}

func (p Params) validate(routine string) {
	if p.Tiles < 1 || p.TileSize < 1 {
		panic(fmt.Sprintf("dense: %s with %d tiles of %d", routine, p.Tiles, p.TileSize))
	}
	if p.Machine == nil {
		panic("dense: nil machine")
	}
}

// kernelEff holds the efficiency of one kernel relative to arch peak.
type kernelEff struct {
	cpu float64
	// gpu is the asymptotic GPU efficiency; gpuHalf is the tile size at
	// which the GPU reaches half of it (saturation model
	// eff(b) = gpu * b² / (b² + gpuHalf²)).
	gpu     float64
	gpuHalf float64
}

// efficiencies per kernel. CPU panel factorizations vectorize poorly;
// GPU panel kernels are dramatically inefficient (sequential dependency
// chains), which is what makes the scheduling problem heterogeneous:
// update kernels (gemm, syrk, tsmqr) want the GPU, panel kernels (potrf,
// getrf, geqrt) want the CPU unless tiles are huge.
var kernelTable = map[string]kernelEff{
	"potrf": {cpu: 0.45, gpu: 0.04, gpuHalf: 4000},
	"trsm":  {cpu: 0.75, gpu: 0.55, gpuHalf: 700},
	"syrk":  {cpu: 0.85, gpu: 0.85, gpuHalf: 550},
	"gemm":  {cpu: 0.90, gpu: 0.95, gpuHalf: 500},
	"getrf": {cpu: 0.50, gpu: 0.04, gpuHalf: 4200},
	"geqrt": {cpu: 0.40, gpu: 0.03, gpuHalf: 4500},
	"unmqr": {cpu: 0.70, gpu: 0.60, gpuHalf: 650},
	"tsqrt": {cpu: 0.40, gpu: 0.03, gpuHalf: 4500},
	"tsmqr": {cpu: 0.75, gpu: 0.80, gpuHalf: 600},
}

// flopCount returns the double-precision operation count of one kernel
// instance on b×b tiles.
func flopCount(kind string, b float64) float64 {
	switch kind {
	case "potrf":
		return b * b * b / 3
	case "trsm":
		return b * b * b
	case "syrk":
		return b * b * b
	case "gemm":
		return 2 * b * b * b
	case "getrf":
		return 2 * b * b * b / 3
	case "geqrt":
		return 4 * b * b * b / 3
	case "unmqr":
		return 2 * b * b * b
	case "tsqrt":
		return 10 * b * b * b / 3
	case "tsmqr":
		return 4 * b * b * b
	default:
		panic("dense: unknown kernel " + kind)
	}
}

// fillCost writes the per-architecture reference execution times
// (seconds) of one kernel instance into cost, a row of len(m.Archs)
// entries for use as TaskSpec.Cost.
func fillCost(cost []float64, m *platform.Machine, kind string, tileSize int) {
	eff, ok := kernelTable[kind]
	if !ok {
		panic("dense: unknown kernel " + kind)
	}
	b := float64(tileSize)
	flops := flopCount(kind, b)
	for a := range m.Archs {
		peak := m.Archs[a].PeakGFlops * 1e9
		var e float64
		if platform.ArchID(a) == platform.ArchGPU {
			e = eff.gpu * (b * b) / (b*b + eff.gpuHalf*eff.gpuHalf)
		} else {
			e = eff.cpu
		}
		if e <= 0 || peak <= 0 {
			cost[a] = 0 // no implementation
			continue
		}
		cost[a] = flops / (peak * e)
	}
}

// tileBytes is the payload size of one b×b float64 tile.
func tileBytes(b int) int64 { return int64(b) * int64(b) * 8 }

// batch is a runtime.Batch plus what the tasks of one dense graph share:
// one cost row per (kernel, tile size), carved from the graph's cost
// table and shared by every task of that kernel and size, and the
// scratch every spec's accesses are copied into, which Add converts
// before the next spec reuses it.
type batch struct {
	*runtime.Batch
	g *runtime.Graph
	// rows are the shared cost rows: a graph has a handful (four kernels
	// at one or two tile sizes), found by a scan. They start in rowBuf.
	rows   []sharedRow
	rowBuf [8]sharedRow
	acc    []runtime.Access
}

// sharedRow is the cost row of one kernel at one tile size.
type sharedRow struct {
	kind     string
	tileSize int
	cost     []float64
}

// newBatch returns the batch that builds a new graph presized for the
// given numbers of tasks, handles and accesses.
func newBatch(tasks, handles, uses int) *batch {
	g := runtime.NewGraphWithCapacity(tasks, handles)
	b := &batch{Batch: g.NewBatch(tasks), g: g}
	b.rows = b.rowBuf[:0]
	b.Reserve(uses, 0, 0)
	return b
}

// costRow returns the shared cost row of kind at p's tile size, carving
// and filling it on first use.
func (b *batch) costRow(p Params, kind string) []float64 {
	for _, r := range b.rows {
		if r.kind == kind && r.tileSize == p.TileSize {
			return r.cost
		}
	}
	cost := b.g.CostRow(len(p.Machine.Archs))
	fillCost(cost, p.Machine, kind, p.TileSize)
	b.rows = append(b.rows, sharedRow{kind, p.TileSize, cost})
	return cost
}

// newSpec assembles a dense kernel task spec for batch submission; its
// accesses are valid until the next newSpec.
func (b *batch) newSpec(p Params, kind string, accesses []runtime.Access) runtime.TaskSpec {
	b.acc = append(b.acc[:0], accesses...)
	cost := b.costRow(p, kind)
	return runtime.TaskSpec{
		Kind:      kind,
		Footprint: uint64(p.TileSize),
		Flops:     flopCount(kind, float64(p.TileSize)),
		Cost:      cost,
		Accesses:  b.acc,
	}
}

// finish submits the batch and returns the graph, with CHAMELEON-style
// bottom-level priorities when the workload asks for them.
func (b *batch) finish(userPriorities bool) *runtime.Graph {
	b.Submit()
	if userPriorities {
		AssignBottomLevelPriorities(b.g)
	}
	return b.g
}

// TileMatrix registers the T×T handle grid of a dense matrix.
func TileMatrix(b *runtime.Batch, name string, tiles, tileSize int) [][]*runtime.DataHandle {
	format := name + "[%d][%d]"
	grid := make([][]*runtime.DataHandle, tiles)
	flat := make([]*runtime.DataHandle, tiles*tiles)
	for i := range grid {
		grid[i] = flat[i*tiles : (i+1)*tiles : (i+1)*tiles]
		for j := range grid[i] {
			grid[i][j] = b.NewData(tileBytes(tileSize), format, i, j)
		}
	}
	return grid
}
