package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestBucketIndex pins the log2 bucket geometry: exact powers of two
// land in the bucket whose bound equals them, everything else in the
// next bound up, and out-of-range values clamp to the edge buckets.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.Ldexp(1, histMinExp), 0},              // exactly the smallest bound
		{math.Ldexp(1, histMinExp) / 2, 0},          // below resolution
		{1.0, -histMinExp},                          // 2^0 → bound 1
		{1.5, -histMinExp + 1},                      // (1,2] → bound 2
		{2.0, -histMinExp + 1},                      // 2^1 → bound 2
		{3.0, -histMinExp + 2},                      // (2,4] → bound 4
		{math.Ldexp(1, histMaxExp), NumBuckets - 1}, // largest finite bound
		{math.Ldexp(1, histMaxExp) + 1, NumBuckets}, // overflow → +Inf
		{math.Inf(1), NumBuckets},
		{math.NaN(), NumBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must fall in the first bucket whose bound contains it.
	for i, b := range histBounds {
		if got := bucketIndex(b); got != i {
			t.Errorf("bound %g maps to bucket %d, want %d", b, got, i)
		}
	}
}

// TestHistogramBoundsExact checks the bounds are exact powers of two in
// ascending order.
func TestHistogramBoundsExact(t *testing.T) {
	b := histBounds
	for i, v := range b {
		if want := math.Ldexp(1, histMinExp+i); v != want {
			t.Errorf("bound[%d] = %g, want %g", i, v, want)
		}
		if i > 0 && b[i] <= b[i-1] {
			t.Errorf("bounds not ascending at %d", i)
		}
	}
}

// TestCounterGaugeHistogram covers the three metric kinds' recording
// semantics and the snapshot's cumulative-bucket construction.
func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "a counter", "k")
	c.With("x").Add(2)
	c.With("x").Inc()
	c.With("y").Inc()
	if v := c.With("x").Value(); v != 3 {
		t.Errorf("counter = %g, want 3", v)
	}

	g := r.NewGauge("g", "a gauge", "")
	g.With("").Set(7)
	g.With("").Add(-2)
	if v := g.With("").Value(); v != 5 {
		t.Errorf("gauge = %g, want 5", v)
	}

	h := r.NewHistogram("h_seconds", "a histogram", "t")
	h.With("a").Observe(1.0) // bucket bound 1
	h.With("a").Observe(1.5) // bucket bound 2
	h.With("a").Observe(0)   // bucket 0

	snap := r.Snapshot()
	var hs *FamilySnapshot
	for i := range snap.Families {
		if snap.Families[i].Name == "h_seconds" {
			hs = &snap.Families[i]
		}
	}
	if hs == nil || len(hs.Metrics) != 1 {
		t.Fatalf("histogram family missing from snapshot: %+v", snap.Families)
	}
	m := hs.Metrics[0]
	if m.Count != 3 || m.Sum != 2.5 {
		t.Errorf("count/sum = %d/%g, want 3/2.5", m.Count, m.Sum)
	}
	if len(m.Buckets) != NumBuckets+1 {
		t.Fatalf("bucket count = %d", len(m.Buckets))
	}
	for i := 1; i < len(m.Buckets); i++ {
		if m.Buckets[i] < m.Buckets[i-1] {
			t.Fatalf("cumulative buckets decrease at %d", i)
		}
	}
	if m.Buckets[NumBuckets] != m.Count {
		t.Errorf("+Inf bucket %d != count %d", m.Buckets[NumBuckets], m.Count)
	}
	if m.Buckets[0] != 1 {
		t.Errorf("bucket[0] = %d, want 1 (the zero observation)", m.Buckets[0])
	}
	if idx := bucketIndex(1.0); m.Buckets[idx] != 2 {
		t.Errorf("cum bucket at bound 1 = %d, want 2", m.Buckets[idx])
	}
}

// TestFamilyReregistration: same shape returns the same family; a
// different shape is a programming error.
func TestFamilyReregistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("dup", "h", "l")
	if b := r.NewCounter("dup", "h", "l"); a != b {
		t.Error("same-shape re-registration made a new family")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.NewGauge("dup", "h", "l")
}

// TestConcurrentRecording hammers one family from many goroutines; run
// under -race this is the lock-cheapness proof, and the final counts
// must be exact.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cc_total", "", "w")
	h := r.NewHistogram("hh_seconds", "", "w")
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < each; i++ {
				c.With(lbl).Inc()
				h.With(lbl).Observe(float64(i%7) * 0.25)
			}
		}(w)
	}
	wg.Wait()
	var total float64
	var obsCount uint64
	for _, f := range r.Snapshot().Families {
		for _, m := range f.Metrics {
			if f.Name == "cc_total" {
				total += m.Value
			}
			if f.Name == "hh_seconds" {
				obsCount += m.Count
			}
		}
	}
	if total != workers*each {
		t.Errorf("counter total = %g, want %d", total, workers*each)
	}
	if obsCount != workers*each {
		t.Errorf("histogram count = %d, want %d", obsCount, workers*each)
	}
}
