package dense

import (
	"fmt"
	"math"
	"math/rand"

	"multiprio/internal/runtime"
)

// choleskyPayload carries real float64 tiles and binds scalar Go tile
// kernels to the graph's tasks, so the factorization can execute on the
// threaded engine and be verified numerically (examples/quickstart).
type choleskyPayload struct {
	b     int
	tiles [][][]float64 // [i][j] -> row-major b×b tile, lower part only
}

func newCholeskyPayload(p Params) *choleskyPayload {
	pl := &choleskyPayload{b: p.TileSize}
	pl.tiles = make([][][]float64, p.Tiles)
	for i := range pl.tiles {
		pl.tiles[i] = make([][]float64, p.Tiles)
		for j := 0; j <= i; j++ {
			pl.tiles[i][j] = make([]float64, p.TileSize*p.TileSize)
		}
	}
	return pl
}

// FillSPD initializes the lower tiles with a random symmetric
// positive-definite matrix: A = R + Rᵀ + 2n·I for uniform R, drawn row
// by row over the lower triangle. Diagonal tiles hold both triangles.
func (pl *choleskyPayload) FillSPD(seed int64) {
	b := pl.b
	n := len(pl.tiles) * b
	rng := rand.New(rand.NewSource(seed))
	for i, tiles := range pl.tiles {
		diag := tiles[i]
		for r := 0; r < b; r++ {
			for _, t := range tiles[:i] {
				tr := row(t, r, b)
				for c := range tr {
					tr[c] = rng.Float64()
				}
			}
			for c := 0; c <= r; c++ {
				v := rng.Float64()
				diag[r*b+c], diag[c*b+r] = v, v
			}
			diag[r*b+r] += 2 * float64(n)
		}
	}
}

func (pl *choleskyPayload) runPotrf(k int) func(runtime.WorkerInfo) {
	a := pl.tiles[k][k]
	b := pl.b
	return func(w runtime.WorkerInfo) {
		if err := potrfKernel(a, b); err != nil {
			panic(err)
		}
	}
}

func (pl *choleskyPayload) runTrsm(k, i int) func(runtime.WorkerInfo) {
	l, x := pl.tiles[k][k], pl.tiles[i][k]
	b := pl.b
	return func(w runtime.WorkerInfo) { trsmKernel(l, x, b) }
}

func (pl *choleskyPayload) runSyrk(k, i int) func(runtime.WorkerInfo) {
	a, c := pl.tiles[i][k], pl.tiles[i][i]
	b := pl.b
	return func(w runtime.WorkerInfo) { syrkKernel(a, c, b) }
}

func (pl *choleskyPayload) runGemm(k, i, j int) func(runtime.WorkerInfo) {
	a, bm, c := pl.tiles[i][k], pl.tiles[j][k], pl.tiles[i][j]
	b := pl.b
	return func(w runtime.WorkerInfo) { gemmKernel(a, bm, c, b) }
}

// The tile kernels are register-blocked over outputs: one pass over k
// feeds a small block of independent accumulators, read from re-sliced
// rows so the inner loops carry no bounds checks. A k-sum is never
// split: every output keeps one accumulator and adds its terms k
// ascending, so each tile is bit for bit what the plain triple loop
// (kernels_test.go keeps it as the oracle) computes — DESIGN §8.6.

// row returns row r of a row-major tile of width b.
func row(t []float64, r, b int) []float64 { return t[r*b : r*b+b : r*b+b] }

// dot returns a·b over len(a) terms, k ascending.
func dot(a, b []float64) (s float64) {
	b = b[:len(a)]
	for k, x := range a {
		s += x * b[k]
	}
	return s
}

// dot2x2 returns the four products of rows a0, a1 with rows b0, b1 over
// len(a0) terms: the 2×2 micro-kernel of gemm, syrk and the verifier.
func dot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	a1, b0, b1 = a1[:len(a0)], b0[:len(a0)], b1[:len(a0)]
	for k, x0 := range a0 {
		x1, y0, y1 := a1[k], b0[k], b1[k]
		s00 += x0 * y0
		s01 += x0 * y1
		s10 += x1 * y0
		s11 += x1 * y1
	}
	return
}

// solveColumn performs one column step of a right-side triangular solve
// on rows lo..hi-1 of x, four rows at a time: with c = len(l)-1,
// x[r][c] = (x[r][c] - Σ_{k<c} x[r][k]·l[k]) / l[c]. It is trsm's inner
// step and, with x the tile being factored, potrf's sub-diagonal update.
func solveColumn(x []float64, lo, hi, b int, l []float64) {
	c := len(l) - 1
	d, l := l[c], l[:c]
	r := lo
	for ; r+4 <= hi; r += 4 {
		x0, x1, x2, x3 := row(x, r, b)[:c+1], row(x, r+1, b)[:c+1], row(x, r+2, b)[:c+1], row(x, r+3, b)[:c+1]
		s0, s1, s2, s3 := x0[c], x1[c], x2[c], x3[c]
		for k, y := range l {
			s0 -= x0[k] * y
			s1 -= x1[k] * y
			s2 -= x2[k] * y
			s3 -= x3[k] * y
		}
		x0[c], x1[c], x2[c], x3[c] = s0/d, s1/d, s2/d, s3/d
	}
	for ; r < hi; r++ {
		xr := row(x, r, b)[:c+1]
		s := xr[c]
		for k, y := range l {
			s -= xr[k] * y
		}
		xr[c] = s / d
	}
}

// potrfKernel computes the in-place lower Cholesky factor of a b×b tile.
func potrfKernel(a []float64, b int) error {
	for j := 0; j < b; j++ {
		aj := row(a, j, b)
		d := aj[j]
		for _, x := range aj[:j] {
			d -= x * x
		}
		if d <= 0 {
			return fmt.Errorf("dense: tile not positive definite at column %d (pivot %g)", j, d)
		}
		aj[j] = math.Sqrt(d)
		solveColumn(a, j+1, b, b, aj[:j+1])
		clear(aj[j+1:])
	}
	return nil
}

// trsmKernel solves X·Lᵀ = X in place for the lower-triangular factor L
// (right side, transposed): rows are independent, and X[r][c] updates
// column by column within a row.
func trsmKernel(l, x []float64, b int) {
	for c := 0; c < b; c++ {
		solveColumn(x, 0, b, b, row(l, c, b)[:c+1])
	}
}

// syrkKernel computes C -= A·Aᵀ on the lower triangle (diagonal tile
// update).
func syrkKernel(a, c []float64, b int) {
	e := b &^ 1
	for r := 0; r < e; r += 2 {
		a0, a1 := row(a, r, b), row(a, r+1, b)
		c0, c1 := row(c, r, b), row(c, r+1, b)
		for cc := 0; cc <= r; cc += 2 {
			s00, s01, s10, s11 := dot2x2(a0, a1, row(a, cc, b), row(a, cc+1, b))
			c0[cc] -= s00
			c1[cc] -= s10
			c1[cc+1] -= s11
			if cc < r { // (r, r+1) is above the diagonal
				c0[cc+1] -= s01
			}
		}
	}
	if e < b {
		al, cl := row(a, e, b), row(c, e, b)
		for cc := range cl {
			cl[cc] -= dot(al, row(a, cc, b))
		}
	}
}

// gemmKernel computes C -= A·Bᵀ (off-diagonal tile update).
func gemmKernel(a, bm, c []float64, b int) {
	e := b &^ 1
	for r := 0; r < e; r += 2 {
		a0, a1 := row(a, r, b), row(a, r+1, b)
		c0, c1 := row(c, r, b), row(c, r+1, b)
		for cc := 0; cc < e; cc += 2 {
			s00, s01, s10, s11 := dot2x2(a0, a1, row(bm, cc, b), row(bm, cc+1, b))
			c0[cc] -= s00
			c0[cc+1] -= s01
			c1[cc] -= s10
			c1[cc+1] -= s11
		}
		if e < b {
			bl := row(bm, e, b)
			c0[e] -= dot(a0, bl)
			c1[e] -= dot(a1, bl)
		}
	}
	if e < b {
		al, cl := row(a, e, b), row(c, e, b)
		for cc := range cl {
			cl[cc] -= dot(al, row(bm, cc, b))
		}
	}
}

// CholeskyWithKernels builds the Cholesky graph with real payloads
// attached, fills it with a random SPD matrix, and returns the graph
// plus a verifier that checks L·Lᵀ against the original matrix to the
// given tolerance after the graph has executed.
func CholeskyWithKernels(p Params, seed int64) (*runtime.Graph, func(tol float64) error) {
	g, pl := choleskyFilled(p, seed)
	return g, pl.verifier()
}

// choleskyFilled builds the graph with its payload and fills the tiles
// with the random SPD matrix of seed.
func choleskyFilled(p Params, seed int64) (*runtime.Graph, *choleskyPayload) {
	p.Kernels = true
	g, pl := cholesky(p)
	pl.FillSPD(seed)
	return g, pl
}

// verifier snapshots the tiles as the input matrix and returns the check
// of L·Lᵀ against it, to run once the factorization has executed.
func (pl *choleskyPayload) verifier() func(tol float64) error {
	// Snapshot the input for verification: the lower tiles packed row by
	// row of tiles into one slice, tile (i, j) at (i(i+1)/2 + j)·b².
	nt, b, bb := len(pl.tiles), pl.b, pl.b*pl.b
	orig := make([]float64, 0, nt*(nt+1)/2*bb)
	for i, tiles := range pl.tiles {
		for _, t := range tiles[:i+1] {
			orig = append(orig, t...)
		}
	}

	return func(tol float64) error {
		// Assemble L and check L·Lᵀ == orig (lower part), two rows and
		// two columns of the product per pass like the kernels.
		n := nt * b
		lf := make([]float64, n*n)
		for i, tiles := range pl.tiles {
			for j, t := range tiles[:i+1] {
				for r := 0; r < b; r++ {
					copy(lf[(i*b+r)*n+j*b:], row(t, r, b))
				}
			}
		}
		var maxErr float64
		check := func(r, c int, s float64) {
			i, j := r/b, c/b
			want := orig[(i*(i+1)/2+j)*bb+(r-i*b)*b+(c-j*b)]
			if e := math.Abs(s - want); e > maxErr {
				maxErr = e
			}
		}
		// Element (r, c) sums k = 0..c, ascending: of a column pair the
		// second takes one term more than the pass they share.
		e := n &^ 1
		for r := 0; r < e; r += 2 {
			l0, l1 := row(lf, r, n), row(lf, r+1, n)
			for c := 0; c < r; c += 2 {
				m0, m1 := row(lf, c, n), row(lf, c+1, n)
				s00, s01, s10, s11 := dot2x2(l0[:c+1], l1, m0, m1)
				check(r, c, s00)
				check(r+1, c, s10)
				check(r, c+1, s01+l0[c+1]*m1[c+1])
				check(r+1, c+1, s11+l1[c+1]*m1[c+1])
			}
			check(r, r, dot(l0[:r+1], l0))
			check(r+1, r, dot(l0[:r+1], l1))
			check(r+1, r+1, dot(l1[:r+2], l1))
		}
		if e < n {
			l := row(lf, e, n)
			for c := 0; c < n; c++ {
				check(e, c, dot(row(lf, c, n)[:c+1], l))
			}
		}
		if maxErr > tol {
			return fmt.Errorf("dense: Cholesky residual %g exceeds tolerance %g", maxErr, tol)
		}
		return nil
	}
}
