package dense

import "multiprio/internal/runtime"

// LU builds the task graph of the right-looking tiled LU factorization
// without pivoting (getrf), the getrf rows of the paper's Fig. 5. The
// DAG has the same diamond shape as Cholesky but is non-symmetric: both
// a column of lower TRSMs and a row of upper TRSMs per step, and a full
// (T-k-1)² GEMM trailing update, giving a larger workload and more
// memory traffic.
func LU(p Params) *runtime.Graph {
	p.validate("getrf")
	n := LUTaskCount(p.Tiles)
	b := newBatch(n, p.Tiles*p.Tiles, luUses(p.Tiles))
	a := TileMatrix(b.Batch, "A", p.Tiles, p.TileSize)

	for k := 0; k < p.Tiles; k++ {
		b.Add(b.newSpec(p, "getrf", []runtime.Access{
			{Handle: a[k][k], Mode: runtime.RW},
		}))

		for i := k + 1; i < p.Tiles; i++ {
			// L panel: solve below the diagonal.
			b.Add(b.newSpec(p, "trsm", []runtime.Access{
				{Handle: a[k][k], Mode: runtime.R},
				{Handle: a[i][k], Mode: runtime.RW},
			}))
		}
		for j := k + 1; j < p.Tiles; j++ {
			// U panel: solve right of the diagonal.
			b.Add(b.newSpec(p, "trsm", []runtime.Access{
				{Handle: a[k][k], Mode: runtime.R},
				{Handle: a[k][j], Mode: runtime.RW},
			}))
		}
		for i := k + 1; i < p.Tiles; i++ {
			for j := k + 1; j < p.Tiles; j++ {
				b.Add(b.newSpec(p, "gemm", []runtime.Access{
					{Handle: a[i][k], Mode: runtime.R},
					{Handle: a[k][j], Mode: runtime.R},
					{Handle: a[i][j], Mode: runtime.RW},
				}))
			}
		}
	}
	return b.finish(p.UserPriorities)
}

// luUses returns the number of accesses of a T-tile LU: one per getrf,
// two per trsm, three per gemm.
func luUses(t int) int {
	n := t
	for k := 0; k < t; k++ {
		r := t - k - 1
		n += 2*2*r + 3*r*r
	}
	return n
}

// LUTaskCount returns the task count of a T-tile LU without pivoting.
func LUTaskCount(tiles int) int {
	t := tiles
	n := t // getrf
	for k := 0; k < t; k++ {
		r := t - k - 1
		n += 2*r + r*r
	}
	return n
}
