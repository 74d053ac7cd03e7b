package core

import (
	"fmt"
	"math"

	"repro/internal/realfmla"
)

// Interval is a range constraint on one numerical null: Lo ≤ z ≤ Hi, with
// ±Inf for open ends. It implements the first extension of the paper's
// Section 10: "most commonly we have restrictions on ranges of numerical
// attributes … we can simply add such constraints in both the numerator
// and denominator of the ratio defining the measure of certainty".
type Interval struct {
	Lo, Hi float64
}

// Unbounded is the no-information interval (−∞, +∞).
func Unbounded() Interval { return Interval{math.Inf(-1), math.Inf(1)} }

// AtLeast is [lo, +∞): e.g. a price known to be non-negative.
func AtLeast(lo float64) Interval { return Interval{lo, math.Inf(1)} }

// AtMost is (−∞, hi].
func AtMost(hi float64) Interval { return Interval{math.Inf(-1), hi} }

// Between is [lo, hi]: e.g. a discount known to be in [0,1].
func Between(lo, hi float64) Interval { return Interval{lo, hi} }

// kind of an interval for the mixed sampler.
func (iv Interval) kind() (bounded bool, signDir float64, err error) {
	loInf, hiInf := math.IsInf(iv.Lo, -1), math.IsInf(iv.Hi, 1)
	switch {
	case loInf && hiInf:
		return false, 0, nil // free direction
	case loInf:
		return false, -1, nil // ray towards −∞
	case hiInf:
		return false, 1, nil // ray towards +∞
	default:
		if iv.Lo > iv.Hi {
			return false, 0, fmt.Errorf("core: empty interval [%g, %g]", iv.Lo, iv.Hi)
		}
		return true, 0, nil
	}
}

// Background assigns range constraints to formula variables (indexed like
// the translated formula's z variables; variables absent from the map are
// unconstrained).
type Background map[int]Interval

// MeasureWithBackground computes the range-conditioned measure
//
//	μ_C = lim_{r→∞} Vol(φ ∧ C ∩ B_r) / Vol(C ∩ B_r)
//
// where C is the conjunction of the background intervals. The sampler
// draws directly from the conditional limit distribution: bounded
// variables take uniform values in their intervals (for large r the
// bounded directions stop growing, so their conditional law is the
// uniform law on the interval), half-bounded variables ray off to ±∞ with
// the sign their interval allows (finite offsets are asymptotically
// irrelevant), and unconstrained variables ray off in a uniformly random
// direction. Each sampled configuration decides φ by the mixed
// finite/asymptotic atom evaluation. Additive error eps with probability
// 1−delta, exactly like the unconditioned AFPRAS.
func (e *Engine) MeasureWithBackground(phi realfmla.Formula, bg Background, eps, delta float64) (Result, error) {
	m, err := e.sampleCount(eps, delta)
	if err != nil {
		return Result{}, err
	}
	ent := e.compiledFor(phi)
	vars := ent.vars
	n := len(vars)
	if n == 0 {
		return trivialResult(realfmla.Eval(ent.reduced, nil), ent.ambient), nil
	}
	// Re-index the background to the reduced variable space and classify.
	bounded := make([]bool, n)
	ray := make([]bool, n)
	lo := make([]float64, n)
	hi := make([]float64, n)
	sign := make([]float64, n)
	for j, orig := range vars {
		iv, ok := bg[orig]
		if !ok {
			iv = Unbounded()
		}
		b, s, err := iv.kind()
		if err != nil {
			return Result{}, err
		}
		bounded[j] = b
		ray[j] = !b
		lo[j], hi[j] = iv.Lo, iv.Hi
		sign[j] = s
	}

	ev := ent.sampler().ev
	vals := make([]float64, n)
	hits := 0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			switch {
			case bounded[j]:
				vals[j] = lo[j] + e.rand().Float64()*(hi[j]-lo[j])
			case sign[j] != 0:
				vals[j] = sign[j] * math.Abs(e.rand().NormFloat64())
			default:
				vals[j] = e.rand().NormFloat64()
			}
		}
		if ev.MixedAsymEval(vals, ray, asymTol) {
			hits++
		}
	}
	return Result{
		Value:     float64(hits) / float64(m),
		Method:    MethodAFPRAS,
		Samples:   m,
		K:         ent.ambient,
		RelevantK: n,
	}, nil
}

// Distribution is a prior on one numerical null — the second Section 10
// extension: "adding probability distributions associated with particular
// columns, which can simply replace uniform distributions over the
// n-dimensional ball".
type Distribution interface {
	// Sample draws one value using the given uniform/normal primitives.
	Sample(uniform func() float64, normal func() float64) float64
}

// UniformDist is the uniform distribution on [Lo, Hi].
type UniformDist struct{ Lo, Hi float64 }

// Sample draws from the uniform law.
func (d UniformDist) Sample(uniform func() float64, _ func() float64) float64 {
	return d.Lo + uniform()*(d.Hi-d.Lo)
}

// NormalDist is the Gaussian with the given mean and standard deviation.
type NormalDist struct{ Mean, Stddev float64 }

// Sample draws from the Gaussian law.
func (d NormalDist) Sample(_ func() float64, normal func() float64) float64 {
	return d.Mean + d.Stddev*normal()
}

// ExponentialDist is the exponential distribution with the given rate,
// shifted by Lo (support [Lo, ∞)).
type ExponentialDist struct {
	Rate float64
	Lo   float64
}

// Sample draws by inversion.
func (d ExponentialDist) Sample(uniform func() float64, _ func() float64) float64 {
	u := uniform()
	for u == 0 {
		u = uniform()
	}
	return d.Lo - math.Log(u)/d.Rate
}

// MeasureWithDistributions computes the probability that the candidate is
// an answer when every relevant null has an explicit prior: the nulls are
// sampled from their distributions and φ is evaluated at the concrete
// point — no asymptotics are involved, since the priors fix the scale.
// Every variable occurring in φ must have a distribution. Additive error
// eps with probability 1−delta.
func (e *Engine) MeasureWithDistributions(phi realfmla.Formula, dists map[int]Distribution, eps, delta float64) (Result, error) {
	m, err := e.sampleCount(eps, delta)
	if err != nil {
		return Result{}, err
	}
	ent := e.compiledFor(phi)
	vars := ent.vars
	n := len(vars)
	if n == 0 {
		return trivialResult(realfmla.Eval(ent.reduced, nil), ent.ambient), nil
	}
	ds := make([]Distribution, n)
	for j, orig := range vars {
		d, ok := dists[orig]
		if !ok {
			return Result{}, fmt.Errorf("core: no distribution for null variable z%d", orig)
		}
		ds[j] = d
	}
	ev := ent.sampler().ev
	uniform := e.rand().Float64
	normal := e.rand().NormFloat64
	vals := make([]float64, n)
	hits := 0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			vals[j] = ds[j].Sample(uniform, normal)
		}
		if ev.Eval(vals) {
			hits++
		}
	}
	return Result{
		Value:     float64(hits) / float64(m),
		Method:    MethodAFPRAS,
		Samples:   m,
		K:         ent.ambient,
		RelevantK: n,
	}, nil
}
