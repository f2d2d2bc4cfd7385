package perfmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"multiprio/internal/platform"
)

// persistedBucket is the JSON form of one calibrated bucket. Mean and
// M2 suffice to restore the Welford accumulator exactly.
type persistedBucket struct {
	Kind      string          `json:"kind"`
	Arch      platform.ArchID `json:"arch"`
	Footprint uint64          `json:"footprint"`
	N         int64           `json:"n"`
	Mean      float64         `json:"mean"`
	M2        float64         `json:"m2"`
}

// valid reports whether Record could have left the bucket: a
// non-negative architecture and sample count, finite non-negative mean
// and M2, and a positive mean once there are samples.
func (b persistedBucket) valid() bool {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	return b.Arch >= 0 && b.N >= 0 && finite(b.Mean) && finite(b.M2) &&
		b.Mean >= 0 && b.M2 >= 0 && (b.N == 0 || b.Mean > 0)
}

// Save serializes the calibrated model to JSON, the counterpart of
// StarPU's on-disk performance models (~/.starpu/sampling): calibrate
// once on the threaded engine, reuse across runs.
func (h *History) Save(w io.Writer) error {
	h.mu.RLock()
	out := make([]persistedBucket, 0, len(h.buckets))
	for k, s := range h.buckets {
		out = append(out, persistedBucket{
			Kind: k.Kind, Arch: k.Arch, Footprint: k.Footprint,
			N: s.n, Mean: s.mean, M2: s.m2,
		})
	}
	h.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Load restores a model saved with Save, merging into the receiver
// (existing buckets are replaced). It refuses a file holding a bucket
// Record cannot produce — a negative architecture, a negative sample
// count, samples with a mean that is not a positive finite time, a
// negative or non-finite M2 — and then leaves the model as it was: every
// bucket is checked before any is applied.
func (h *History) Load(r io.Reader) error {
	var in []persistedBucket
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("perfmodel: %w", err)
	}
	for _, b := range in {
		if !b.valid() {
			return fmt.Errorf("perfmodel: invalid bucket %q arch=%d n=%d mean=%g m2=%g", b.Kind, b.Arch, b.N, b.Mean, b.M2)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, b := range in {
		h.buckets[Key{Kind: b.Kind, Arch: b.Arch, Footprint: b.Footprint}] = &stats{
			n: b.N, mean: b.Mean, m2: b.M2,
		}
	}
	return nil
}
