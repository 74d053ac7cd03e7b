package core

import (
	"fmt"
	"math"

	"repro/internal/geometry"
	"repro/internal/realfmla"
)

// FPRAS implements the Section 7 scheme for formulas arising from CQ(+,<)
// queries (linear atoms): homogenize φ, put it into DNF, interpret each
// disjunct as a convex cone intersected with the unit ball, and estimate
// the volume of the union of these bodies with the Karp–Luby estimator
// over per-body hit-and-run samplers and multiphase volume estimates —
// the oracle structure of the Bringmann–Friedrich FPRAS the paper invokes.
// The returned value approximates ν(φ) = Vol(∪ cones ∩ B) / Vol(B) with
// multiplicative error governed by eps (statistical, not a proven worst-
// case bound: the MCMC mixing constants of the underlying samplers are not
// reproduced here; see DESIGN.md).
//
// It returns an error if φ is not linear or its DNF exceeds dnfLimit
// disjuncts.
func (e *Engine) FPRAS(phi realfmla.Formula, eps float64) (Result, error) {
	if err := ValidateEps(eps); err != nil {
		return Result{}, err
	}
	reduced, vars := realfmla.Reduce(phi)
	n := len(vars)
	if n == 0 {
		return trivialResult(realfmla.Eval(reduced, nil), realfmla.NumVars(phi)), nil
	}
	if !realfmla.IsLinear(reduced) {
		return Result{}, fmt.Errorf("core: FPRAS requires linear constraints (CQ(+,<) regime)")
	}
	hom, err := realfmla.HomogenizeLinear(reduced)
	if err != nil {
		return Result{}, err
	}
	dnf, err := realfmla.ToDNF(hom, dnfLimit)
	if err != nil {
		return Result{}, err
	}

	bodies, err := conesFromDNF(dnf, n)
	if err != nil {
		return Result{}, err
	}
	if len(bodies) == 0 {
		return Result{Value: 0, Exact: false, Method: MethodFPRAS, K: realfmla.NumVars(phi), RelevantK: n}, nil
	}

	// Sampling budgets scaled by 1/eps²; constants chosen empirically (the
	// theoretical constants of [9] are far larger than practical needs).
	perPhase := clampInt(int(24/(eps*eps)), 2000, 400000)
	union := clampInt(int(float64(len(bodies))*24/(eps*eps)), 4000, 2000000)

	vol, err := geometry.UnionVolume(bodies, e.rand(), geometry.UnionVolumeOptions{
		Samples: union,
		Volume:  geometry.VolumeOptions{SamplesPerPhase: perPhase},
	})
	if err != nil {
		return Result{}, err
	}
	nu := vol / geometry.BallVolume(n, 1)
	// Clamp statistical noise into [0,1].
	nu = math.Max(0, math.Min(1, nu))
	return Result{
		Value:     nu,
		Method:    MethodFPRAS,
		Samples:   union,
		K:         realfmla.NumVars(phi),
		RelevantK: n,
	}, nil
}

// conesFromDNF turns each DNF disjunct into a convex cone ∩ unit ball.
// Disjuncts containing a nontrivial equality atom define measure-zero sets
// and are dropped; ≠-atoms are dropped from their conjunction (they only
// remove a hyperplane, measure zero); <, ≤, >, ≥ atoms become halfspaces
// (strict and non-strict bound the same volume).
func conesFromDNF(dnf []realfmla.Conj, n int) ([]*geometry.Body, error) {
	var bodies []*geometry.Body
	for _, conj := range dnf {
		var normals [][]float64
		degenerate := false
		for _, a := range conj {
			c, c0, ok := a.P.LinearForm()
			if !ok {
				return nil, fmt.Errorf("core: nonlinear atom %s after homogenization", a)
			}
			if c0 != 0 {
				return nil, fmt.Errorf("core: atom %s not homogenized", a)
			}
			allZero := true
			for _, ci := range c {
				if ci != 0 {
					allZero = false
					break
				}
			}
			switch a.Rel {
			case realfmla.EQ:
				if !allZero {
					degenerate = true // measure-zero disjunct
				}
			case realfmla.NE:
				if allZero {
					degenerate = true // 0 ≠ 0 is false
				}
				// Otherwise: removing a hyperplane does not change volume.
			case realfmla.LT, realfmla.LE:
				if allZero {
					if a.Rel == realfmla.LT {
						degenerate = true // 0 < 0
					}
					continue
				}
				normals = append(normals, c)
			case realfmla.GT, realfmla.GE:
				if allZero {
					if a.Rel == realfmla.GT {
						degenerate = true
					}
					continue
				}
				neg := make([]float64, len(c))
				for i, ci := range c {
					neg[i] = -ci
				}
				normals = append(normals, neg)
			}
			if degenerate {
				break
			}
		}
		if degenerate {
			continue
		}
		bodies = append(bodies, geometry.NewConeInBall(n, normals))
	}
	return bodies, nil
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
