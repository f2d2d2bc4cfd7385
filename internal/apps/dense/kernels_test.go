package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
)

// The reference kernels: the plain triple loops the blocked kernels of
// kernels.go replaced, kept as their oracle. One accumulator per output,
// k ascending — the order every blocked kernel must reproduce bit for bit.

func refPotrf(a []float64, b int) error {
	for j := 0; j < b; j++ {
		d := a[j*b+j]
		for k := 0; k < j; k++ {
			d -= a[j*b+k] * a[j*b+k]
		}
		if d <= 0 {
			return fmt.Errorf("dense: tile not positive definite at column %d (pivot %g)", j, d)
		}
		d = math.Sqrt(d)
		a[j*b+j] = d
		for i := j + 1; i < b; i++ {
			s := a[i*b+j]
			for k := 0; k < j; k++ {
				s -= a[i*b+k] * a[j*b+k]
			}
			a[i*b+j] = s / d
		}
		for k := j + 1; k < b; k++ {
			a[j*b+k] = 0
		}
	}
	return nil
}

func refTrsm(l, x []float64, b int) {
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			s := x[r*b+c]
			for k := 0; k < c; k++ {
				s -= x[r*b+k] * l[c*b+k]
			}
			x[r*b+c] = s / l[c*b+c]
		}
	}
}

func refSyrk(a, c []float64, b int) {
	for r := 0; r < b; r++ {
		for cc := 0; cc <= r; cc++ {
			s := 0.0
			for k := 0; k < b; k++ {
				s += a[r*b+k] * a[cc*b+k]
			}
			c[r*b+cc] -= s
		}
	}
}

func refGemm(a, bm, c []float64, b int) {
	for r := 0; r < b; r++ {
		for cc := 0; cc < b; cc++ {
			s := 0.0
			for k := 0; k < b; k++ {
				s += a[r*b+k] * bm[cc*b+k]
			}
			c[r*b+cc] -= s
		}
	}
}

// refFillSPD is the n×n scratch path FillSPD replaced: A = R + Rᵀ + 2n·I
// drawn row by row over the lower triangle, then cut into tiles.
func refFillSPD(tiles, b int, seed int64) [][][]float64 {
	n := tiles * b
	rng := rand.New(rand.NewSource(seed))
	full := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			v := rng.Float64()
			full[r*n+c] = v
			full[c*n+r] = v
		}
		full[r*n+r] += 2 * float64(n)
	}
	out := make([][][]float64, tiles)
	for i := range out {
		out[i] = make([][]float64, tiles)
		for j := 0; j <= i; j++ {
			t := make([]float64, b*b)
			for r := 0; r < b; r++ {
				copy(t[r*b:(r+1)*b], full[(i*b+r)*n+j*b:(i*b+r)*n+j*b+b])
			}
			out[i][j] = t
		}
	}
	return out
}

// kernelSizes reaches every remainder path of the 2×2 and four-row
// blockings: below a block, odd, one past a multiple, and the
// benchmark's 64.
var kernelSizes = []int{1, 2, 3, 5, 8, 17, 64}

func randTile(rng *rand.Rand, b int) []float64 {
	t := make([]float64, b*b)
	for i := range t {
		t[i] = 2*rng.Float64() - 1
	}
	return t
}

// spdTile returns a full symmetric tile R + Rᵀ + 2b·I.
func spdTile(rng *rand.Rand, b int) []float64 {
	t := make([]float64, b*b)
	for r := 0; r < b; r++ {
		for c := 0; c <= r; c++ {
			v := rng.Float64()
			t[r*b+c], t[c*b+r] = v, v
		}
		t[r*b+r] += 2 * float64(b)
	}
	return t
}

// lowerTile returns a well-conditioned lower-triangular factor.
func lowerTile(rng *rand.Rand, b int) []float64 {
	l := spdTile(rng, b)
	if err := refPotrf(l, b); err != nil {
		panic(err)
	}
	return l
}

// sameBits reports the first element where got and want differ as
// float64 bit patterns (so NaNs and signed zeros count).
func sameBits(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d = %v (%#x), reference %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

func clone(t []float64) []float64 { return append([]float64(nil), t...) }

// kernelsMatchReference runs the four kernels and their references on
// the same random b×b tiles and compares every element exactly.
func kernelsMatchReference(b int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	a, bm, c := randTile(rng, b), randTile(rng, b), randTile(rng, b)

	got, want := clone(c), clone(c)
	gemmKernel(a, bm, got, b)
	refGemm(a, bm, want, b)
	if err := sameBits(got, want); err != nil {
		return fmt.Errorf("gemm b=%d: %w", b, err)
	}

	got, want = clone(c), clone(c)
	syrkKernel(a, got, b)
	refSyrk(a, want, b)
	if err := sameBits(got, want); err != nil {
		return fmt.Errorf("syrk b=%d: %w", b, err)
	}

	l := lowerTile(rng, b)
	got, want = clone(c), clone(c)
	trsmKernel(l, got, b)
	refTrsm(l, want, b)
	if err := sameBits(got, want); err != nil {
		return fmt.Errorf("trsm b=%d: %w", b, err)
	}

	// One SPD tile and one that is not (a random tile stops at an early
	// pivot): same error, same partial tile.
	for _, in := range [][]float64{spdTile(rng, b), c} {
		got, want = clone(in), clone(in)
		gotErr, wantErr := potrfKernel(got, b), refPotrf(want, b)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("potrf b=%d: error %v, reference %v", b, gotErr, wantErr)
		}
		if err := sameBits(got, want); err != nil {
			return fmt.Errorf("potrf b=%d (error %v): %w", b, wantErr, err)
		}
	}
	return nil
}

func TestKernelsMatchReferenceExactly(t *testing.T) {
	for _, b := range kernelSizes {
		for seed := int64(1); seed <= 3; seed++ {
			if err := kernelsMatchReference(b, seed); err != nil {
				t.Error(err)
			}
		}
	}
}

func FuzzKernelsMatchReference(f *testing.F) {
	for _, b := range kernelSizes {
		f.Add(uint8(b), int64(b))
	}
	f.Fuzz(func(t *testing.T, b uint8, seed int64) {
		if err := kernelsMatchReference(int(b%72)+1, seed); err != nil {
			t.Error(err)
		}
	})
}

// TestPotrfKernelNonSPDMatchesReference: a tile that stops being
// positive definite in a late column fails with the reference's column
// and pivot and leaves the reference's partial factor behind.
func TestPotrfKernelNonSPDMatchesReference(t *testing.T) {
	for _, b := range kernelSizes {
		rng := rand.New(rand.NewSource(int64(b)))
		in := spdTile(rng, b)
		bad := b - 1 - b/3
		in[bad*b+bad] = -1
		got, want := clone(in), clone(in)
		gotErr, wantErr := potrfKernel(got, b), refPotrf(want, b)
		if wantErr == nil {
			t.Fatalf("b=%d: reference accepted a tile with pivot -1 at column %d", b, bad)
		}
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("b=%d: error %v, reference %v", b, gotErr, wantErr)
		}
		if err := sameBits(got, want); err != nil {
			t.Errorf("b=%d: partial tile: %v", b, err)
		}
	}
}

func TestKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const b = 17
	a, bm, c, l, spd := randTile(rng, b), randTile(rng, b), randTile(rng, b), lowerTile(rng, b), spdTile(rng, b)
	work := make([]float64, b*b)
	for name, run := range map[string]func(){
		"gemm": func() { gemmKernel(a, bm, c, b) },
		"syrk": func() { syrkKernel(a, c, b) },
		"trsm": func() { copy(work, c); trsmKernel(l, work, b) },
		"potrf": func() {
			copy(work, spd)
			if err := potrfKernel(work, b); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if n := testing.AllocsPerRun(10, run); n != 0 {
			t.Errorf("%s kernel: %v allocations per call, want 0", name, n)
		}
	}
}

// TestFillSPDMatchesFullMatrixPath: filling the tiles directly draws
// the same stream into the same elements as the n×n scratch it replaced.
func TestFillSPDMatchesFullMatrixPath(t *testing.T) {
	for _, tiles := range []int{1, 4} {
		for _, b := range []int{1, 5} {
			for seed := int64(1); seed <= 3; seed++ {
				want := refFillSPD(tiles, b, seed)
				_, pl := choleskyFilled(Params{Tiles: tiles, TileSize: b, Machine: platform.CPUOnly(1)}, seed)
				for i := 0; i < tiles; i++ {
					for j := 0; j <= i; j++ {
						got := pl.tiles[i][j]
						if err := sameBits(got, want[i][j]); err != nil {
							t.Fatalf("tiles=%d b=%d seed=%d tile (%d,%d): %v", tiles, b, seed, i, j, err)
						}
					}
				}
			}
		}
	}
}

// TestVerifierResidualMatchesPlainLoops: the blocked verifier reports
// the residual the element-at-a-time loop over the assembled factor
// computes, on an even and an odd matrix order.
func TestVerifierResidualMatchesPlainLoops(t *testing.T) {
	for _, sz := range [][2]int{{3, 16}, {3, 5}, {1, 1}} {
		tiles, b := sz[0], sz[1]
		n := tiles * b
		g, pl := choleskyFilled(Params{Tiles: tiles, TileSize: b, Machine: platform.CPUOnly(2)}, 7)
		verify := pl.verifier()
		eng, err := runtime.NewThreadedEngine(platform.CPUOnly(2), eager.New())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(g); err != nil {
			t.Fatal(err)
		}
		orig := refFillSPD(tiles, b, 7)
		lf := make([]float64, n*n)
		for i := 0; i < tiles; i++ {
			for j := 0; j <= i; j++ {
				tile := pl.tiles[i][j]
				for r := 0; r < b; r++ {
					copy(lf[(i*b+r)*n+j*b:], tile[r*b:(r+1)*b])
				}
			}
		}
		var maxErr float64
		for r := 0; r < n; r++ {
			for c := 0; c <= r; c++ {
				s := 0.0
				for k := 0; k <= c; k++ {
					s += lf[r*n+k] * lf[c*n+k]
				}
				if e := math.Abs(s - orig[r/b][c/b][r%b*b+c%b]); e > maxErr {
					maxErr = e
				}
			}
		}
		if err := verify(1e-8); err != nil {
			t.Errorf("tiles=%d b=%d: %v", tiles, b, err)
		}
		if maxErr == 0 {
			continue // nothing for a zero tolerance to reject
		}
		want := fmt.Sprintf("dense: Cholesky residual %g exceeds tolerance 0", maxErr)
		if err := verify(0); err == nil || err.Error() != want {
			t.Errorf("tiles=%d b=%d: verify(0) = %v, want %q", tiles, b, err, want)
		}
	}
}

// The tile-kernel micro-benchmarks: one 64×64 tile, the benchmark
// workload's size, reported in GFlop/s (a multiply-add is two flops).

func benchKernel(b *testing.B, flops float64, prep, run func()) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if prep != nil {
			b.StopTimer()
			prep()
			b.StartTimer()
		}
		run()
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkGemmKernel64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	a, bm, c := randTile(rng, n), randTile(rng, n), make([]float64, n*n)
	benchKernel(b, 2*n*n*n, nil, func() { gemmKernel(a, bm, c, n) })
}

func BenchmarkSyrkKernel64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	a, c := randTile(rng, n), make([]float64, n*n)
	benchKernel(b, n*n*(n+1), nil, func() { syrkKernel(a, c, n) })
}

// The in-place kernels would drift to Inf/0 if fed their own output, so
// each iteration restores the input outside the timer.

func BenchmarkTrsmKernel64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	l, x0, x := lowerTile(rng, n), randTile(rng, n), make([]float64, n*n)
	benchKernel(b, n*n*n, func() { copy(x, x0) }, func() { trsmKernel(l, x, n) })
}

func BenchmarkPotrfKernel64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	a0, a := spdTile(rng, n), make([]float64, n*n)
	benchKernel(b, n*n*n/3.0, func() { copy(a, a0) }, func() {
		if err := potrfKernel(a, n); err != nil {
			b.Fatal(err)
		}
	})
}
