package dense

import (
	"multiprio/internal/runtime"
)

// Cholesky builds the task graph of the right-looking tiled Cholesky
// factorization (potrf) of a symmetric positive-definite T×T-tile
// matrix: the paper's regular reference workload (Fig. 4 and the potrf
// rows of Fig. 5).
//
// Per panel step k: POTRF on the diagonal tile, TRSM down the panel,
// then SYRK/GEMM updates of the trailing submatrix.
func Cholesky(p Params) *runtime.Graph {
	g, _ := cholesky(p)
	return g
}

// cholesky builds the graph and, with p.Kernels, the tile payload its
// tasks compute on.
func cholesky(p Params) (*runtime.Graph, *choleskyPayload) {
	p.validate("potrf")
	n := CholeskyTaskCount(p.Tiles)
	b := newBatch(n, p.Tiles*p.Tiles)
	a := TileMatrix(b.Batch, "A", p.Tiles, p.TileSize)
	var payload *choleskyPayload
	if p.Kernels {
		payload = newCholeskyPayload(p)
	}

	for k := 0; k < p.Tiles; k++ {
		potrf := b.newSpec(p, "potrf", []runtime.Access{
			{Handle: a[k][k], Mode: runtime.RW},
		})
		if payload != nil {
			potrf.Run = payload.runPotrf(k)
		}
		b.Add(potrf)

		for i := k + 1; i < p.Tiles; i++ {
			trsm := b.newSpec(p, "trsm", []runtime.Access{
				{Handle: a[k][k], Mode: runtime.R},
				{Handle: a[i][k], Mode: runtime.RW},
			})
			if payload != nil {
				trsm.Run = payload.runTrsm(k, i)
			}
			b.Add(trsm)
		}
		for i := k + 1; i < p.Tiles; i++ {
			syrk := b.newSpec(p, "syrk", []runtime.Access{
				{Handle: a[i][k], Mode: runtime.R},
				{Handle: a[i][i], Mode: runtime.RW},
			})
			if payload != nil {
				syrk.Run = payload.runSyrk(k, i)
			}
			b.Add(syrk)
			for j := k + 1; j < i; j++ {
				gemm := b.newSpec(p, "gemm", []runtime.Access{
					{Handle: a[i][k], Mode: runtime.R},
					{Handle: a[j][k], Mode: runtime.R},
					{Handle: a[i][j], Mode: runtime.RW},
				})
				if payload != nil {
					gemm.Run = payload.runGemm(k, i, j)
				}
				b.Add(gemm)
			}
		}
	}
	return b.finish(p.UserPriorities), payload
}

// CholeskyTaskCount returns the number of tasks of a T-tile Cholesky:
// T potrf + T(T-1)/2 trsm + T(T-1)/2 syrk + T(T-1)(T-2)/6 gemm.
func CholeskyTaskCount(tiles int) int {
	t := tiles
	return t + t*(t-1)/2 + t*(t-1)/2 + t*(t-1)*(t-2)/6
}
