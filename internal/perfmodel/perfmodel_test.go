package perfmodel

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"multiprio/internal/platform"
)

func TestEstimateFallsBackToPrior(t *testing.T) {
	h := NewHistory()
	got, ok := h.Estimate("gemm", platform.ArchCPU, 960, 0.5, true)
	if !ok || got != 0.5 {
		t.Errorf("Estimate with empty history = %v, %v; want prior 0.5", got, ok)
	}
	if _, ok := h.Estimate("gemm", platform.ArchCPU, 960, 0, false); ok {
		t.Error("Estimate with no prior should return ok=false")
	}
}

func TestRecordThenEstimateUsesMean(t *testing.T) {
	h := NewHistory()
	h.Record("gemm", platform.ArchGPU, 960, 1.0)
	h.Record("gemm", platform.ArchGPU, 960, 3.0)
	got, ok := h.Estimate("gemm", platform.ArchGPU, 960, 99, true)
	if !ok || got != 2.0 {
		t.Errorf("Estimate = %v, %v; want mean 2.0", got, ok)
	}
	if n := h.Samples("gemm", platform.ArchGPU, 960); n != 2 {
		t.Errorf("Samples = %d, want 2", n)
	}
}

func TestBucketsAreIndependent(t *testing.T) {
	h := NewHistory()
	h.Record("gemm", platform.ArchCPU, 960, 1.0)
	h.Record("gemm", platform.ArchGPU, 960, 0.1)
	h.Record("potrf", platform.ArchCPU, 960, 2.0)
	h.Record("gemm", platform.ArchCPU, 1920, 8.0)

	cases := []struct {
		kind string
		arch platform.ArchID
		fp   uint64
		want float64
	}{
		{"gemm", platform.ArchCPU, 960, 1.0},
		{"gemm", platform.ArchGPU, 960, 0.1},
		{"potrf", platform.ArchCPU, 960, 2.0},
		{"gemm", platform.ArchCPU, 1920, 8.0},
	}
	for _, c := range cases {
		if got, _ := h.Mean(c.kind, c.arch, c.fp); got != c.want {
			t.Errorf("Mean(%s,%d,%d) = %v, want %v", c.kind, c.arch, c.fp, got, c.want)
		}
	}
}

func TestInvalidSamplesIgnored(t *testing.T) {
	h := NewHistory()
	h.Record("gemm", platform.ArchCPU, 1, 0)
	h.Record("gemm", platform.ArchCPU, 1, -1)
	h.Record("gemm", platform.ArchCPU, 1, math.NaN())
	h.Record("gemm", platform.ArchCPU, 1, math.Inf(1))
	if n := h.Samples("gemm", platform.ArchCPU, 1); n != 0 {
		t.Errorf("invalid samples recorded: n = %d", n)
	}
}

func TestStdDev(t *testing.T) {
	h := NewHistory()
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Record("k", 0, 1, v)
	}
	got := h.StdDev("k", 0, 1)
	want := math.Sqrt(32.0 / 7.0) // sample variance of the classic example
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if h.StdDev("absent", 0, 1) != 0 {
		t.Error("StdDev of absent bucket should be 0")
	}
}

func TestDumpContainsBuckets(t *testing.T) {
	h := NewHistory()
	h.Record("potrf", platform.ArchCPU, 960, 1)
	h.Record("gemm", platform.ArchGPU, 1920, 2)
	d := h.Dump()
	if !strings.Contains(d, "potrf") || !strings.Contains(d, "gemm") {
		t.Errorf("Dump missing buckets:\n%s", d)
	}
	if !strings.HasPrefix(d, "gemm") {
		t.Errorf("Dump should sort by kind; got:\n%s", d)
	}
}

func TestOracle(t *testing.T) {
	var o Oracle
	got, ok := o.Estimate("k", 0, 1, 7, true)
	if !ok || got != 7 {
		t.Errorf("Oracle.Estimate = %v, %v", got, ok)
	}
	if _, ok := o.Estimate("k", 0, 1, 0, false); ok {
		t.Error("Oracle with no prior should be ok=false")
	}
}

func TestConcurrentRecordEstimate(t *testing.T) {
	h := NewHistory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Record("k", platform.ArchID(g%2), uint64(i%4), 1.0)
				h.Estimate("k", platform.ArchID(g%2), uint64(i%4), 1, true)
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	for a := 0; a < 2; a++ {
		for fp := 0; fp < 4; fp++ {
			total += h.Samples("k", platform.ArchID(a), uint64(fp))
		}
	}
	if total != 8*500 {
		t.Errorf("lost samples under concurrency: %d, want %d", total, 8*500)
	}
}

// Property: the running mean equals the arithmetic mean of the inputs.
func TestQuickMeanMatchesArithmetic(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistory()
		count := int(n%50) + 1
		sum := 0.0
		for i := 0; i < count; i++ {
			v := rng.Float64() + 0.001
			sum += v
			h.Record("k", 0, 1, v)
		}
		got, ok := h.Mean("k", 0, 1)
		return ok && math.Abs(got-sum/float64(count)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
