// Package telemetry turns the read-only observability layer
// (internal/obs) into production operability: live aggregated metrics, a
// scrapeable /metrics endpoint in Prometheus text exposition format,
// health/readiness probes wired to the engines' watchdog and starvation
// detectors, and a schema-versioned JSONL run export.
//
// The layering contract is strict and inherited from internal/obs:
// telemetry subscribes to the SAME probe stream the decision log and
// metrics recorder consume (fanned in through obs.Combine inside the
// engines), so no instrumentation site changes, and observation must
// never perturb scheduling. The canonical-trace SHA-256 goldens are
// byte-identical with a telemetry Probe attached
// (schedtest.TestCanonicalTraceGoldenTelemetry), and the engines' nil-
// probe hot paths stay zero-alloc (TestProbeHotPathAllocationFree here,
// sim.TestObservedRunAllocationPin beside the engine).
//
// The aggregation core is a Registry of metric families — counters,
// gauges, and fixed-bucket log2 histograms — designed for cheap
// concurrent recording: every hot-path update is an atomic operation on
// a pre-resolved *Metric handle; locks appear only on the first
// observation of a new label value and during Snapshot. The package
// depends on nothing but the standard library.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind uint8

const (
	// KindCounter is a monotonically increasing sum.
	KindCounter Kind = iota + 1
	// KindGauge is a last-value-wins instantaneous measurement.
	KindGauge
	// KindHistogram is a fixed-bucket log2 distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Histogram bucket geometry: upper bounds at every power of two from
// 2^histMinExp to 2^histMaxExp, plus the implicit +Inf bucket. The span
// covers ~1µs to ~4.5h, which brackets every duration the engines
// produce — per-task queue and sojourn times, kernel durations, and
// whole-run makespans — with exact float64 bounds (powers of two need no
// rounding, so exposition and parsing round-trip losslessly).
const (
	histMinExp = -20
	histMaxExp = 14
	// NumBuckets is the finite bucket count of every histogram; the
	// +Inf bucket is stored at index NumBuckets.
	NumBuckets = histMaxExp - histMinExp + 1
)

// histBounds holds the finite upper bounds, index-aligned with the
// bucket slots.
var histBounds = func() [NumBuckets]float64 {
	var b [NumBuckets]float64
	for i := range b {
		b[i] = math.Ldexp(1, histMinExp+i)
	}
	return b
}()

// bucketIndex maps a value to the slot of the smallest bucket whose
// upper bound contains it; NumBuckets is the +Inf slot. Zero, negative
// and sub-resolution values land in bucket 0; NaN counts as +Inf.
func bucketIndex(v float64) int {
	if v <= histBounds[0] {
		return 0
	}
	if math.IsNaN(v) || v > histBounds[NumBuckets-1] {
		return NumBuckets
	}
	// Frexp gives v = frac·2^exp with frac ∈ [0.5, 1), i.e.
	// 2^(exp-1) ≤ v < 2^exp; the containing bound is 2^exp unless v is
	// exactly a power of two.
	frac, exp := math.Frexp(v)
	if frac == 0.5 {
		exp--
	}
	return exp - histMinExp
}

// Metric is one instance of a family (one label value): a counter, a
// gauge, or a histogram, according to its family's kind. All recording
// methods are lock-free and safe for concurrent use.
type Metric struct {
	kind Kind
	// bits holds the float64 bit pattern of the counter/gauge value, or
	// the histogram's running sum.
	bits atomic.Uint64
	// count and buckets are histogram-only: total observations and raw
	// (non-cumulative) per-bucket counts, +Inf at index NumBuckets.
	count   atomic.Uint64
	buckets []atomic.Uint64
}

// addBits atomically adds v to the float64 stored in b.
func addBits(b *atomic.Uint64, v float64) {
	for {
		old := b.Load()
		if b.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Add increments a counter (or shifts a gauge) by v.
func (m *Metric) Add(v float64) { addBits(&m.bits, v) }

// Inc increments a counter by one.
func (m *Metric) Inc() { m.Add(1) }

// Set stores a gauge value.
func (m *Metric) Set(v float64) { m.bits.Store(math.Float64bits(v)) }

// Value returns the current counter/gauge value (a histogram's sum).
func (m *Metric) Value() float64 { return math.Float64frombits(m.bits.Load()) }

// Observe records one histogram sample.
func (m *Metric) Observe(v float64) {
	m.buckets[bucketIndex(v)].Add(1)
	m.count.Add(1)
	addBits(&m.bits, v)
}

// Family is a named group of metrics sharing a kind, a help string, and
// at most one label key. With resolves (creating on first use) the
// instance for a label value; resolved handles stay valid for the
// family's lifetime, so hot paths cache them and record through atomics
// only.
type Family struct {
	name, help, label string
	kind              Kind

	mu    sync.RWMutex
	insts map[string]*Metric
}

// With returns the metric for the given label value, creating it on
// first use. Unlabeled families use the empty string.
func (f *Family) With(labelValue string) *Metric {
	f.mu.RLock()
	m := f.insts[labelValue]
	f.mu.RUnlock()
	if m != nil {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m = f.insts[labelValue]; m != nil {
		return m
	}
	m = &Metric{kind: f.kind}
	if f.kind == KindHistogram {
		m.buckets = make([]atomic.Uint64, NumBuckets+1)
	}
	f.insts[labelValue] = m
	return m
}

// Registry owns a set of metric families. Registration (New*) is
// expected at construction time; recording happens through the returned
// families. A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// newFamily registers a family, panicking on a name collision with a
// different kind (a programming error, mirroring expvar.Publish).
func (r *Registry) newFamily(kind Kind, name, help, label string) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.kind != kind || f.label != label {
			panic("telemetry: family " + name + " re-registered with a different shape")
		}
		return f
	}
	f := &Family{name: name, help: help, label: label, kind: kind,
		insts: make(map[string]*Metric)}
	if label == "" {
		// Materialize the single instance so unlabeled families export
		// a zero value instead of disappearing before first use.
		m := &Metric{kind: kind}
		if kind == KindHistogram {
			m.buckets = make([]atomic.Uint64, NumBuckets+1)
		}
		f.insts[""] = m
	}
	r.families[name] = f
	return f
}

// NewCounter registers (or returns) a counter family. label is the
// single label key, empty for an unlabeled family.
func (r *Registry) NewCounter(name, help, label string) *Family {
	return r.newFamily(KindCounter, name, help, label)
}

// NewGauge registers (or returns) a gauge family.
func (r *Registry) NewGauge(name, help, label string) *Family {
	return r.newFamily(KindGauge, name, help, label)
}

// NewHistogram registers (or returns) a histogram family with the
// package-wide log2 buckets.
func (r *Registry) NewHistogram(name, help, label string) *Family {
	return r.newFamily(KindHistogram, name, help, label)
}

// Snapshot is a consistent-enough copy of a registry for exposition:
// families sorted by name, instances sorted by label value, histogram
// buckets cumulated. Individual metric reads are atomic; the snapshot
// as a whole is not a point-in-time cut across metrics, which matches
// Prometheus scrape semantics.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one family's snapshot.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help"`
	Kind    string           `json:"kind"`
	Label   string           `json:"label,omitempty"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one instance's snapshot. Value is the counter/gauge
// reading; Count/Sum/Buckets are histogram-only, with Buckets holding
// CUMULATIVE counts per finite bound plus +Inf last (Prometheus `le`
// semantics).
type MetricSnapshot struct {
	LabelValue string   `json:"labelValue,omitempty"`
	Value      float64  `json:"value,omitempty"`
	Count      uint64   `json:"count,omitempty"`
	Sum        float64  `json:"sum,omitempty"`
	Buckets    []uint64 `json:"buckets,omitempty"`
}

// Snapshot captures the registry's current state in deterministic
// order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	fams := make([]*Family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var snap Snapshot
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String(), Label: f.label}
		f.mu.RLock()
		keys := make([]string, 0, len(f.insts))
		for k := range f.insts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := f.insts[k]
			ms := MetricSnapshot{LabelValue: k}
			switch f.kind {
			case KindHistogram:
				ms.Sum = m.Value()
				ms.Buckets = make([]uint64, NumBuckets+1)
				var cum uint64
				for i := range m.buckets {
					cum += m.buckets[i].Load()
					ms.Buckets[i] = cum
				}
				// Derive the count from the cumulated buckets rather
				// than the count atomic, so `+Inf == count` holds even
				// when a concurrent Observe lands between the loads.
				ms.Count = cum
			default:
				ms.Value = m.Value()
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		f.mu.RUnlock()
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
