package dense

import "multiprio/internal/runtime"

// QR builds the task graph of the tiled QR factorization (geqrf) using
// the flat-tree TS (triangle-on-top-of-square) kernels of
// PLASMA/CHAMELEON: GEQRT on the diagonal, UNMQR across the row, TSQRT
// down the panel, TSMQR on the trailing submatrix. This is the geqrf
// workload of the paper's Fig. 5.
//
// Extra T×T handles store the per-tile triangular reflector factors.
func QR(p Params) *runtime.Graph {
	p.validate("geqrf")
	n := QRTaskCount(p.Tiles)
	b := newBatch(n, 2*p.Tiles*p.Tiles, qrUses(p.Tiles))
	a := TileMatrix(b.Batch, "A", p.Tiles, p.TileSize)
	tf := TileMatrix(b.Batch, "T", p.Tiles, p.TileSize)

	for k := 0; k < p.Tiles; k++ {
		b.Add(b.newSpec(p, "geqrt", []runtime.Access{
			{Handle: a[k][k], Mode: runtime.RW},
			{Handle: tf[k][k], Mode: runtime.W},
		}))

		for j := k + 1; j < p.Tiles; j++ {
			b.Add(b.newSpec(p, "unmqr", []runtime.Access{
				{Handle: a[k][k], Mode: runtime.R},
				{Handle: tf[k][k], Mode: runtime.R},
				{Handle: a[k][j], Mode: runtime.RW},
			}))
		}
		for i := k + 1; i < p.Tiles; i++ {
			b.Add(b.newSpec(p, "tsqrt", []runtime.Access{
				{Handle: a[k][k], Mode: runtime.RW},
				{Handle: a[i][k], Mode: runtime.RW},
				{Handle: tf[i][k], Mode: runtime.W},
			}))
			for j := k + 1; j < p.Tiles; j++ {
				b.Add(b.newSpec(p, "tsmqr", []runtime.Access{
					{Handle: a[i][k], Mode: runtime.R},
					{Handle: tf[i][k], Mode: runtime.R},
					{Handle: a[k][j], Mode: runtime.RW},
					{Handle: a[i][j], Mode: runtime.RW},
				}))
			}
		}
	}
	return b.finish(p.UserPriorities)
}

// qrUses returns the number of accesses of a T-tile TS-QR: two per
// geqrt, three per unmqr and tsqrt, four per tsmqr.
func qrUses(t int) int {
	n := 0
	for k := 0; k < t; k++ {
		r := t - k - 1
		n += 2 + 3*r + 3*r + 4*r*r
	}
	return n
}

// QRTaskCount returns the task count of a T-tile TS-QR.
func QRTaskCount(tiles int) int {
	t := tiles
	n := 0
	for k := 0; k < t; k++ {
		r := t - k - 1
		n += 1 + r + r + r*r
	}
	return n
}
