package fault

import (
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
)

// NoisyEstimator wraps a performance model so every estimate is
// deterministically mispredicted: the factor applied to one
// (kind, arch, footprint) triple is a pure hash of the triple and the
// seed, independent of query order. That keeps runs reproducible — the
// same task is mispredicted the same way every time it is scored — while
// still exercising the schedulers' robustness to model error, the
// perturbation HeSP-style simulation studies apply.
type NoisyEstimator struct {
	Base perfmodel.Estimator
	// Rel is the relative spread: factors are uniform in
	// [1-Rel*sqrt3, 1+Rel*sqrt3], i.e. standard deviation Rel,
	// clamped to stay positive.
	Rel  float64
	Seed uint64
}

// Estimate implements perfmodel.Estimator.
func (n NoisyEstimator) Estimate(kind string, arch platform.ArchID, footprint uint64, prior float64, hasPrior bool) (float64, bool) {
	v, ok := n.Base.Estimate(kind, arch, footprint, prior, hasPrior)
	if !ok || n.Rel <= 0 {
		return v, ok
	}
	h := n.Seed
	for i := 0; i < len(kind); i++ {
		h = (h ^ uint64(kind[i])) * 0x100000001b3
	}
	h = (h ^ uint64(arch)) * 0x100000001b3
	h = (h ^ footprint) * 0x100000001b3
	u := rng{s: h}
	const sqrt3 = 1.7320508075688772
	f := 1 + n.Rel*sqrt3*(2*u.f64()-1)
	if f < 0.05 {
		f = 0.05
	}
	return v * f, true
}
