package perfmodel

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"multiprio/internal/platform"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	h := NewHistory()
	for _, v := range []float64{1, 2, 3, 4} {
		h.Record("gemm", platform.ArchGPU, 960, v)
	}
	h.Record("potrf", platform.ArchCPU, 640, 0.5)

	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}

	h2 := NewHistory()
	if err := h2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	mean, ok := h2.Mean("gemm", platform.ArchGPU, 960)
	if !ok || mean != 2.5 {
		t.Errorf("restored mean = %v, %v; want 2.5", mean, ok)
	}
	if got, want := h2.StdDev("gemm", platform.ArchGPU, 960), h.StdDev("gemm", platform.ArchGPU, 960); math.Abs(got-want) > 1e-12 {
		t.Errorf("restored stddev = %v, want %v", got, want)
	}
	if n := h2.Samples("potrf", platform.ArchCPU, 640); n != 1 {
		t.Errorf("restored samples = %d", n)
	}
	// Restored models keep accumulating correctly.
	h2.Record("gemm", platform.ArchGPU, 960, 10)
	mean, _ = h2.Mean("gemm", platform.ArchGPU, 960)
	if mean != 4 {
		t.Errorf("post-load mean = %v, want 4", mean)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	h := NewHistory()
	if err := h.Load(strings.NewReader("not json")); err == nil {
		t.Error("Load accepted garbage")
	}
	if err := h.Load(strings.NewReader(`[{"kind":"k","n":-1}]`)); err == nil {
		t.Error("Load accepted negative sample count")
	}
}

func TestLoadMergesAndReplaces(t *testing.T) {
	h := NewHistory()
	h.Record("k", 0, 1, 100) // will be replaced
	h.Record("other", 0, 1, 7)
	if err := h.Load(strings.NewReader(`[{"kind":"k","arch":0,"footprint":1,"n":2,"mean":5,"m2":0}]`)); err != nil {
		t.Fatal(err)
	}
	if mean, _ := h.Mean("k", 0, 1); mean != 5 {
		t.Errorf("bucket not replaced: mean = %v", mean)
	}
	if mean, _ := h.Mean("other", 0, 1); mean != 7 {
		t.Errorf("unrelated bucket lost: mean = %v", mean)
	}
}

// snapshot copies the model's buckets, for comparing whole models.
func snapshot(h *History) map[Key]stats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[Key]stats, len(h.buckets))
	for k, s := range h.buckets {
		out[k] = *s
	}
	return out
}

func sameModel(a, b map[Key]stats) bool {
	if len(a) != len(b) {
		return false
	}
	for k, s := range a {
		if o, ok := b[k]; !ok || o != s {
			return false
		}
	}
	return true
}

// TestLoadRejectsImpossibleBuckets: a bucket Record could never leave —
// samples with a zero or negative mean, a negative M2, a negative
// architecture — fails the whole file, and a file that fails leaves the
// model exactly as it was, its valid buckets included.
func TestLoadRejectsImpossibleBuckets(t *testing.T) {
	for _, in := range []string{
		`[{"kind":"a","arch":0,"footprint":1,"n":3,"mean":2,"m2":0},{"kind":"b","n":-1}]`,
		`[{"kind":"a","arch":0,"footprint":1,"n":3,"mean":0,"m2":-4}]`,
		`[{"kind":"a","arch":0,"footprint":1,"n":3,"mean":0,"m2":0}]`,
		`[{"kind":"a","arch":0,"footprint":1,"n":3,"mean":-1,"m2":0}]`,
		`[{"kind":"a","arch":0,"footprint":1,"n":3,"mean":2,"m2":-1}]`,
		`[{"kind":"a","arch":-1,"footprint":1,"n":3,"mean":2,"m2":0}]`,
		`[{"kind":"a","arch":0,"footprint":1,"n":0,"mean":-2,"m2":0}]`,
	} {
		h := NewHistory()
		h.Record("a", 0, 1, 7)
		before := snapshot(h)
		if err := h.Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load accepted %s", in)
		}
		if !sameModel(snapshot(h), before) {
			t.Errorf("Load of %s changed the model: %v, was %v", in, snapshot(h), before)
		}
		if d, ok := h.Estimate("a", 0, 1, 5e-3, true); !ok || d != 7 {
			t.Errorf("after %s: δ = %v, %v, want the recorded 7", in, d, ok)
		}
	}
}

// FuzzHistoryLoad: Load either refuses its input and leaves the model
// unchanged, or accepts it, and then Save followed by Load into an empty
// model is the identity; an accepted model answers finite estimates and
// standard deviations.
func FuzzHistoryLoad(f *testing.F) {
	f.Add([]byte(`[{"kind":"k","arch":0,"footprint":1,"n":2,"mean":5,"m2":0}]`))
	f.Add([]byte(`[{"kind":"a","arch":0,"footprint":1,"n":3,"mean":2,"m2":0},{"kind":"b","n":-1}]`))
	f.Add([]byte(`[{"kind":"a","n":3,"mean":0,"m2":-4}]`))
	f.Add([]byte(`[{"kind":"x","arch":1,"footprint":960,"n":1,"mean":1e-9,"m2":0},{"kind":"x","arch":1,"footprint":960,"n":0}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHistory()
		h.Record("base", 0, 1, 3)
		before := snapshot(h)
		if err := h.Load(bytes.NewReader(data)); err != nil {
			if !sameModel(snapshot(h), before) {
				t.Fatalf("refused input changed the model: %v, was %v", snapshot(h), before)
			}
			return
		}
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded model: %v", err)
		}
		h2 := NewHistory()
		if err := h2.Load(&buf); err != nil {
			t.Fatalf("Load of a saved model: %v\n%s", err, buf.Bytes())
		}
		if !sameModel(snapshot(h2), snapshot(h)) {
			t.Fatalf("Save then Load gave %v, want %v", snapshot(h2), snapshot(h))
		}
		for k := range snapshot(h) {
			d, ok := h.Estimate(k.Kind, k.Arch, k.Footprint, 5e-3, true)
			if sd := h.StdDev(k.Kind, k.Arch, k.Footprint); !ok || !(d > 0) || math.IsInf(d, 0) || math.IsNaN(sd) {
				t.Fatalf("bucket %v answers δ = %v, %v and σ = %v", k, d, ok, sd)
			}
		}
	})
}
