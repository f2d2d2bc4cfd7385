package perfmodel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"multiprio/internal/platform"
)

// TestPropertyOnlineMatchesBatch is the Welford correctness property:
// for random observation streams of random lengths and scales, the
// online mean and sample variance must match a two-pass batch
// recomputation to tight relative tolerance.
func TestPropertyOnlineMatchesBatch(t *testing.T) {
	const kind, fp = "gemm", uint64(1 << 20)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		n := 1 + rng.Intn(400)
		// Mix scales across trials: microseconds to kiloseconds, with
		// occasional tight clusters (small variance, the numerically
		// hard case for the naive sum-of-squares formula).
		scale := math.Pow(10, float64(rng.Intn(7))-3)
		center := scale * (1 + rng.Float64())
		spread := scale
		if trial%3 == 0 {
			spread = scale * 1e-6
		}
		h := NewHistory()
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := center + spread*(rng.Float64()-0.5)
			xs = append(xs, x)
			h.Record(kind, 0, fp, x)
		}
		// Two-pass batch recomputation.
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		variance := 0.0
		if n >= 2 {
			variance = m2 / float64(n-1)
		}

		gotMean, ok := h.Mean(kind, 0, fp)
		if !ok {
			t.Fatalf("trial %d: no mean after %d samples", trial, n)
		}
		if !closeRel(gotMean, mean, 1e-9) {
			t.Fatalf("trial %d (n=%d): online mean %g, batch %g", trial, n, gotMean, mean)
		}
		gotSD := h.StdDev(kind, 0, fp)
		if !closeRel(gotSD, math.Sqrt(variance), 1e-6) {
			t.Fatalf("trial %d (n=%d): online sd %g, batch %g", trial, n, gotSD, math.Sqrt(variance))
		}
		if got := h.Samples(kind, 0, fp); got != int64(n) {
			t.Fatalf("trial %d: %d samples recorded, want %d", trial, got, n)
		}
	}
}

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return true
	}
	return math.Abs(a-b)/den <= tol
}

// TestPropertyPersistRoundTripExact checks that Save/Load restores the
// Welford accumulators bit-exactly: estimates, sample counts and
// standard deviations after the round-trip equal the originals, and
// further Records continue the stream as if never serialized.
func TestPropertyPersistRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistory()
	type bucket struct {
		kind string
		arch platform.ArchID
		fp   uint64
	}
	var buckets []bucket
	for _, kind := range []string{"potrf", "trsm", "syrk", "gemm"} {
		for arch := platform.ArchID(0); arch < 3; arch++ {
			fp := uint64(1) << uint(10+rng.Intn(20))
			buckets = append(buckets, bucket{kind, arch, fp})
			for i, n := 0, 1+rng.Intn(50); i < n; i++ {
				h.Record(kind, arch, fp, rng.ExpFloat64())
			}
		}
	}
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewHistory()
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, bk := range buckets {
		wantN := h.Samples(bk.kind, bk.arch, bk.fp)
		if got := restored.Samples(bk.kind, bk.arch, bk.fp); got != wantN {
			t.Errorf("%v: samples %d after round-trip, want %d", bk, got, wantN)
		}
		wantMean, _ := h.Mean(bk.kind, bk.arch, bk.fp)
		gotMean, ok := restored.Mean(bk.kind, bk.arch, bk.fp)
		if !ok || gotMean != wantMean {
			t.Errorf("%v: mean %v after round-trip, want %v", bk, gotMean, wantMean)
		}
		if got, want := restored.StdDev(bk.kind, bk.arch, bk.fp), h.StdDev(bk.kind, bk.arch, bk.fp); got != want {
			t.Errorf("%v: sd %v after round-trip, want %v", bk, got, want)
		}
	}
	// The accumulator must continue identically post-restore.
	bk := buckets[0]
	for _, x := range []float64{0.5, 1.5, 2.5} {
		h.Record(bk.kind, bk.arch, bk.fp, x)
		restored.Record(bk.kind, bk.arch, bk.fp, x)
	}
	m1, _ := h.Mean(bk.kind, bk.arch, bk.fp)
	m2, _ := restored.Mean(bk.kind, bk.arch, bk.fp)
	if m1 != m2 || h.StdDev(bk.kind, bk.arch, bk.fp) != restored.StdDev(bk.kind, bk.arch, bk.fp) {
		t.Error("restored model diverges from original on further records")
	}
}

// TestFootprintBucketBoundary pins the bucketing contract: footprints
// are exact keys, so adjacent sizes (fp, fp±1) and the extremes (0,
// MaxUint64) never alias, and an unseen footprint falls back to the
// static prior even when neighbouring buckets are calibrated.
func TestFootprintBucketBoundary(t *testing.T) {
	h := NewHistory()
	const kind = "gemm"
	fps := []uint64{0, 1, 1 << 20, 1<<20 + 1, 1<<20 - 1, math.MaxUint64}
	for i, fp := range fps {
		want := float64(i+1) * 10
		h.Record(kind, 0, fp, want)
		h.Record(kind, 0, fp, want)
	}
	for i, fp := range fps {
		want := float64(i+1) * 10
		got, ok := h.Mean(kind, 0, fp)
		if !ok || got != want {
			t.Errorf("fp=%d: mean %v (ok=%v), want %v — neighbouring buckets alias", fp, got, ok, want)
		}
		if sd := h.StdDev(kind, 0, fp); sd != 0 {
			t.Errorf("fp=%d: sd %v after identical samples, want 0", fp, sd)
		}
	}
	// Unseen footprint between two calibrated ones: prior wins.
	if got, ok := h.Estimate(kind, 0, 1<<19, 77, true); !ok || got != 77 {
		t.Errorf("unseen footprint: estimate %v (ok=%v), want prior 77", got, ok)
	}
	// A calibrated footprint must not consult the prior.
	if got, ok := h.Estimate(kind, 0, 1, 77, true); !ok || got != 20 {
		t.Errorf("calibrated footprint: estimate %v (ok=%v), want recorded mean 20", got, ok)
	}
}
