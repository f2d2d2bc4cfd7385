package dense

import (
	"fmt"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// HierParams configures the hierarchical Cholesky workload.
type HierParams struct {
	// Blocks is the outer matrix order in big blocks.
	Blocks int
	// SubTiles is the inner order: each big block is SubTiles×SubTiles
	// fine tiles, so the coarse block size is SubTiles*TileSize.
	SubTiles int
	// TileSize is the fine tile order b.
	TileSize int
	Machine  *platform.Machine
	// UserPriorities assigns bottom-level ranks for dmdas.
	UserPriorities bool
}

// HierarchicalCholesky builds the task graph of a blocked Cholesky with
// hierarchical granularity, the workload of the paper's Section VII
// outlook: "hierarchical tasks ... expose different task sizes in the
// DAG, providing a sufficient amount of large-granularity tasks to
// efficiently utilize GPUs, along with fine-granularity tasks to take
// advantage of CPUs and thus unlock more parallelism. Such scenarios
// are similar to QR_MUMPS, and that's why we expect better results than
// Dmdas when scheduling hierarchical tasks."
//
// The panel operations (the factorization of each diagonal block and
// the triangular solves below it) are expanded into fine tiled
// subgraphs over b-sized tiles — many small, parallel, CPU-appropriate
// tasks — while each trailing update is ONE coarse GEMM/SYRK over the
// whole (SubTiles·b)² block, the large-granularity GPU food. Data is
// shared at fine-tile resolution, so the STF inference stitches coarse
// and fine tasks into a single DAG, exactly what StarPU's hierarchical
// tasks ("bubbles") produce at runtime.
func HierarchicalCholesky(p HierParams) *runtime.Graph {
	if p.Blocks < 1 || p.SubTiles < 1 || p.TileSize < 1 {
		panic(fmt.Sprintf("dense: hierarchical cholesky with %d blocks of %d×%d tiles",
			p.Blocks, p.SubTiles, p.TileSize))
	}
	if p.Machine == nil {
		panic("dense: nil machine")
	}
	nb, st, ts := p.Blocks, p.SubTiles, p.TileSize
	n := HierTaskCount(nb, st)
	b := newBatch(n, nb*nb*st*st, hierUses(nb, st))
	coarse := st * ts
	fineP := Params{Tiles: st, TileSize: ts, Machine: p.Machine}
	coarseP := Params{Tiles: nb, TileSize: coarse, Machine: p.Machine}

	// Handle grid at FINE resolution: tiles[BI][BJ][i][j].
	tile := func(BI, BJ, i, j int) int {
		return ((BI*nb+BJ)*st+i)*st + j
	}
	handles := make([]*runtime.DataHandle, nb*nb*st*st)
	for BI := 0; BI < nb; BI++ {
		for BJ := 0; BJ < nb; BJ++ {
			for i := 0; i < st; i++ {
				for j := 0; j < st; j++ {
					handles[tile(BI, BJ, i, j)] = b.NewData(tileBytes(ts), "A[%d,%d](%d,%d)", BI, BJ, i, j)
				}
			}
		}
	}
	h := func(BI, BJ, i, j int) *runtime.DataHandle { return handles[tile(BI, BJ, i, j)] }

	// blockAccesses lists all fine tiles of a block with one mode.
	blockAccesses := func(BI, BJ int, mode runtime.AccessMode, acc []runtime.Access) []runtime.Access {
		for i := 0; i < st; i++ {
			for j := 0; j < st; j++ {
				acc = append(acc, runtime.Access{Handle: h(BI, BJ, i, j), Mode: mode})
			}
		}
		return acc
	}

	// finePotrf expands POTRF(K) into the fine tiled Cholesky of block
	// (K,K) — the hierarchical "bubble".
	finePotrf := func(K int) {
		for k := 0; k < st; k++ {
			b.Add(b.newSpec(fineP, "potrf",
				[]runtime.Access{{Handle: h(K, K, k, k), Mode: runtime.RW}}))
			for i := k + 1; i < st; i++ {
				b.Add(b.newSpec(fineP, "trsm", []runtime.Access{
					{Handle: h(K, K, k, k), Mode: runtime.R},
					{Handle: h(K, K, i, k), Mode: runtime.RW},
				}))
			}
			for i := k + 1; i < st; i++ {
				b.Add(b.newSpec(fineP, "syrk", []runtime.Access{
					{Handle: h(K, K, i, k), Mode: runtime.R},
					{Handle: h(K, K, i, i), Mode: runtime.RW},
				}))
				for j := k + 1; j < i; j++ {
					b.Add(b.newSpec(fineP, "gemm", []runtime.Access{
						{Handle: h(K, K, i, k), Mode: runtime.R},
						{Handle: h(K, K, j, k), Mode: runtime.R},
						{Handle: h(K, K, i, j), Mode: runtime.RW},
					}))
				}
			}
		}
	}

	// fineTrsm expands TRSM(I,K): solve block (I,K) against the factor
	// in (K,K), fine tile by fine tile.
	fineTrsm := func(I, K int) {
		for k := 0; k < st; k++ {
			for i := 0; i < st; i++ {
				b.Add(b.newSpec(fineP, "trsm", []runtime.Access{
					{Handle: h(K, K, k, k), Mode: runtime.R},
					{Handle: h(I, K, i, k), Mode: runtime.RW},
				}))
			}
			for i := 0; i < st; i++ {
				for j := k + 1; j < st; j++ {
					b.Add(b.newSpec(fineP, "gemm", []runtime.Access{
						{Handle: h(I, K, i, k), Mode: runtime.R},
						{Handle: h(K, K, j, k), Mode: runtime.R},
						{Handle: h(I, K, i, j), Mode: runtime.RW},
					}))
				}
			}
		}
	}

	var acc []runtime.Access // scratch: newSpec copies it into the batch
	for K := 0; K < nb; K++ {
		finePotrf(K)
		for I := K + 1; I < nb; I++ {
			fineTrsm(I, K)
		}
		for I := K + 1; I < nb; I++ {
			// Coarse SYRK over the whole diagonal block.
			acc = blockAccesses(I, K, runtime.R, acc[:0])
			acc = blockAccesses(I, I, runtime.RW, acc)
			b.Add(b.newSpec(coarseP, "syrk", acc))
			for J := K + 1; J < I; J++ {
				// Coarse GEMM over the whole off-diagonal block: the
				// large-granularity accelerator food.
				acc = blockAccesses(I, K, runtime.R, acc[:0])
				acc = blockAccesses(J, K, runtime.R, acc)
				acc = blockAccesses(I, J, runtime.RW, acc)
				b.Add(b.newSpec(coarseP, "gemm", acc))
			}
		}
	}
	return b.finish(p.UserPriorities)
}

// hierUses returns the number of accesses HierarchicalCholesky makes:
// a fine Cholesky per diagonal block, a fine solve (two per trsm, three
// per gemm) per panel block, and coarse updates touching every fine
// tile of two (syrk) or three (gemm) blocks.
func hierUses(nb, st int) int {
	fineTrsm := 2*st*st + 3*st*st*(st-1)/2
	n := 0
	for K := 0; K < nb; K++ {
		r := nb - K - 1
		n += choleskyUses(st) + r*fineTrsm + r*2*st*st + r*(r-1)/2*3*st*st
	}
	return n
}

// HierTaskCount returns the number of tasks HierarchicalCholesky emits.
func HierTaskCount(nb, st int) int {
	fineChol := CholeskyTaskCount(st)
	fineTrsm := st*st + st*st*(st-1)/2
	n := 0
	for K := 0; K < nb; K++ {
		r := nb - K - 1
		n += fineChol + r*fineTrsm + r + r*(r-1)/2
	}
	return n
}
