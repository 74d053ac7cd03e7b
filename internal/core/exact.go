package core

import (
	"math"
	"math/big"
	"sort"

	"repro/internal/realfmla"
)

// orderAtomsOnly reports whether every atom of the (reduced) formula is an
// order atom: a linear polynomial whose variable part is ±α·z_i or
// α·(z_i - z_j). The asymptotic truth of such formulas is constant on each
// signed-permutation cell of the ball — the cell's sign pattern decides
// single-variable atoms and the magnitude order together with the signs
// decides difference atoms — which is what makes the exact enumeration
// below correct. Formulas translated from FO(<) queries always have this
// shape.
func orderAtomsOnly(f realfmla.Formula) bool {
	for _, a := range realfmla.Atoms(f) {
		c, _, ok := a.P.LinearForm()
		if !ok {
			return false
		}
		var nz []int
		for i, ci := range c {
			if ci != 0 {
				nz = append(nz, i)
			}
		}
		switch len(nz) {
		case 0, 1:
			// constant or single-variable: fine
		case 2:
			if c[nz[0]]+c[nz[1]] != 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// exactOrder computes ν(φ) exactly as a rational number for order formulas
// by enumerating the 2ⁿ·n! signed-permutation cells: the unit ball is
// partitioned, up to measure zero, into equal-volume cells indexed by a
// sign pattern s ∈ {±1}ⁿ and an ordering of the coordinate magnitudes. The
// asymptotic truth of φ is constant on each cell and is evaluated at the
// integer representative a_i = s_i · rank_i. It evaluates through the
// entry's cached compiled form, so repeated calls (ε-sweeps) compile
// nothing. Returns ok=false when φ is not an order formula or the cell
// count exceeds maxExactCells.
func (e *Engine) exactOrder(ent *compiledEntry) (Result, bool, error) {
	n := len(ent.vars)
	if n == 0 || !orderAtomsOnly(ent.reduced) {
		return Result{}, false, nil
	}
	// cells = 2^n · n!
	cells := 1
	for i := 1; i <= n; i++ {
		cells *= 2 * i
		if cells > maxExactCells {
			return Result{}, false, nil
		}
	}

	ev := ent.sampler().ev
	sat := 0
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i + 1 // magnitudes 1..n
	}
	a := make([]float64, n)
	// Enumerate permutations (Heap's algorithm) × sign masks.
	var visit func(k int)
	evalCell := func() {
		for mask := 0; mask < 1<<n; mask++ {
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					a[i] = -float64(perm[i])
				} else {
					a[i] = float64(perm[i])
				}
			}
			if ev.AsymEval(a, 0) {
				sat++
			}
		}
	}
	visit = func(k int) {
		if k == 1 {
			evalCell()
			return
		}
		for i := 0; i < k; i++ {
			visit(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	visit(n)

	rat := big.NewRat(int64(sat), int64(cells))
	v, _ := rat.Float64()
	return Result{Value: v, Rat: rat, Exact: true, Method: MethodExactCells}, true, nil
}

// exactSector computes ν(φ) exactly (up to floating point) for formulas
// with at most two relevant variables: with one variable, the asymptotic
// truth along a ray depends only on the ray's sign — for *any* polynomial
// atoms — so ν is the average of the two ray evaluations; with two
// variables and linear atoms, the homogenized satisfying set is a finite
// union of circular sectors whose boundaries are the lines c·a = 0 of the
// atoms, so ν is the total angle of the sectors on which φ is
// asymptotically true, divided by 2π. This realizes the closed forms of
// Prop 6.1 and the introduction example. Returns ok=false when more than
// two variables are relevant, or two are and some atom is nonlinear.
func (e *Engine) exactSector(f realfmla.Formula) (Result, bool) {
	n := realfmla.NumVars(f)
	switch n {
	case 0:
		return trivialResult(realfmla.Eval(f, nil), 0), true
	case 1:
		v := 0.0
		if realfmla.AsymEval(f, []float64{1}, 0) {
			v += 0.5
		}
		if realfmla.AsymEval(f, []float64{-1}, 0) {
			v += 0.5
		}
		rat := new(big.Rat).SetFloat64(v)
		return Result{Value: v, Rat: rat, Exact: true, Method: MethodExactSector}, true
	case 2:
		if !realfmla.IsLinear(f) {
			return Result{}, false
		}
		// Boundary angles of all atoms with a nonzero homogeneous part.
		var angles []float64
		for _, a := range realfmla.Atoms(f) {
			c, _, _ := a.P.LinearForm()
			if c[0] == 0 && c[1] == 0 {
				continue
			}
			// c0·cosθ + c1·sinθ = 0 at θ and θ+π.
			th := math.Atan2(-c[0], c[1])
			for _, t := range []float64{th, th + math.Pi} {
				t = math.Mod(t, 2*math.Pi)
				if t < 0 {
					t += 2 * math.Pi
				}
				angles = append(angles, t)
			}
		}
		if len(angles) == 0 {
			// No direction dependence: constant asymptotic truth.
			return trivialResult(realfmla.AsymEval(f, []float64{1, 0}, 0), 2), true
		}
		sort.Float64s(angles)
		// Deduplicate near-equal angles.
		ded := angles[:0]
		for _, t := range angles {
			if len(ded) == 0 || t-ded[len(ded)-1] > 1e-12 {
				ded = append(ded, t)
			}
		}
		angles = ded
		total := 0.0
		for i := range angles {
			lo := angles[i]
			hi := angles[(i+1)%len(angles)]
			if i == len(angles)-1 {
				hi += 2 * math.Pi
			}
			mid := (lo + hi) / 2
			if realfmla.AsymEval(f, []float64{math.Cos(mid), math.Sin(mid)}, 0) {
				total += hi - lo
			}
		}
		v := total / (2 * math.Pi)
		return Result{Value: v, Exact: true, Method: MethodExactSector}, true
	default:
		return Result{}, false
	}
}
