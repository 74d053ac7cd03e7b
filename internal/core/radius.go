package core

import (
	"fmt"
	"math"

	"repro/internal/mc"
	"repro/internal/realfmla"
)

// MuAtRadius estimates the finite-radius measure μ_r of Section 4 for a
// translated formula: the fraction of the ball B^k_r occupied by the
// satisfying set of φ, estimated with `samples` uniform points. As r grows
// this converges to ν(φ) = μ (the well-definedness theorem, Section 5);
// the convergence is exercised by tests and cmd/experiments.
func (e *Engine) MuAtRadius(phi realfmla.Formula, r float64, samples int) (float64, error) {
	if r <= 0 {
		return 0, fmt.Errorf("core: radius must be positive, got %g", r)
	}
	if samples <= 0 {
		return 0, fmt.Errorf("core: samples must be positive, got %d", samples)
	}
	kn := e.compiledFor(phi)
	n := len(kn.vars)
	if n == 0 {
		if realfmla.Eval(kn.reduced, nil) {
			return 1, nil
		}
		return 0, nil
	}
	// Note: reducing to the relevant variables is valid at finite radius
	// too, because the satisfying set is a cylinder and the fraction of
	// B^k_r occupied by a cylinder over a set S ⊆ B^n_r equals the fraction
	// of B^n_r occupied by S only asymptotically; at finite r the cylinder
	// fraction is a radially reweighted version. For the convergence
	// demonstrations we therefore sample in the reduced space, which has
	// the same r → ∞ limit.
	ev := e.sampler(kn).ev
	hits := 0
	for i := 0; i < samples; i++ {
		x := mc.SampleBall(e.rand(), n)
		for j := range x {
			x[j] *= r
		}
		if ev.Eval(x) {
			hits++
		}
	}
	return float64(hits) / float64(samples), nil
}

// MuAtRadiusLattice is the integer variant sketched in the paper's
// Section 10: instead of volumes, count the integer lattice points of
// B^n_r that satisfy φ. By the n-dimensional Gauss circle bound the count
// approximates the volume up to lower-order terms, so the lattice measure
// converges to the same ν(φ) as r grows — which tests exercise. Exact
// enumeration; feasible for few relevant variables and moderate radii
// (the loop visits ~(2r+1)ⁿ points).
func (e *Engine) MuAtRadiusLattice(phi realfmla.Formula, r int) (float64, error) {
	if r <= 0 {
		return 0, fmt.Errorf("core: radius must be positive, got %d", r)
	}
	kn := e.compiledFor(phi)
	n := len(kn.vars)
	if n == 0 {
		if realfmla.Eval(kn.reduced, nil) {
			return 1, nil
		}
		return 0, nil
	}
	if pts := math.Pow(float64(2*r+1), float64(n)); pts > 5e8 {
		return 0, fmt.Errorf("core: lattice enumeration too large (%g points)", pts)
	}
	ev := e.sampler(kn).ev
	x := make([]float64, n)
	r2 := float64(r) * float64(r)
	total, hits := 0, 0
	var rec func(i int, norm2 float64)
	rec = func(i int, norm2 float64) {
		if i == n {
			total++
			if ev.Eval(x) {
				hits++
			}
			return
		}
		for v := -r; v <= r; v++ {
			nv := norm2 + float64(v)*float64(v)
			if nv > r2 {
				continue
			}
			x[i] = float64(v)
			rec(i+1, nv)
		}
	}
	rec(0, 0)
	if total == 0 {
		return 0, nil
	}
	return float64(hits) / float64(total), nil
}
