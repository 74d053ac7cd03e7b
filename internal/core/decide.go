package core

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/realfmla"
)

// Satisfiable decides whether a linear constraint formula has a real
// solution, and produces a witness: each DNF disjunct is a system of
// linear (in)equalities checked by the simplex solver, with strict
// inequalities handled through a slack-maximization objective. This gives
// the classical *possibility* notion next to the measure: a candidate
// answer with μ = 0 may still be possible (its satisfying set is bounded
// or lower-dimensional, e.g. z = 5), and Satisfiable tells these apart
// from genuinely impossible answers.
//
// It returns an error for nonlinear formulas or when the DNF exceeds
// dnfLimit disjuncts.
func (e *Engine) Satisfiable(phi realfmla.Formula) (sat bool, witness []float64, err error) {
	reduced, vars := realfmla.Reduce(phi)
	n := len(vars)
	if n == 0 {
		return realfmla.Eval(reduced, nil), []float64{}, nil
	}
	if !realfmla.IsLinear(reduced) {
		return false, nil, fmt.Errorf("core: Satisfiable requires linear constraints")
	}
	dnf, err := realfmla.ToDNF(reduced, dnfLimit)
	if err != nil {
		return false, nil, err
	}
	for _, conj := range dnf {
		w, ok, err := e.satisfiableConj(conj, n)
		if err != nil {
			return false, nil, err
		}
		if ok {
			// Lift the reduced witness back to the ambient variable space.
			full := make([]float64, realfmla.NumVars(phi))
			for j, orig := range vars {
				full[orig] = w[j]
			}
			return true, full, nil
		}
	}
	return false, nil, nil
}

// witnessBox bounds witness coordinates: Satisfiable searches within
// |z_j| ≤ witnessBox, which is ample for constraints arising from query
// constants but keeps every LP bounded.
const witnessBox = 1e6

// satisfiableConj decides one conjunction of linear atoms.
//
// Strategy: encode non-NE atoms as a polyhedron P with a shared slack
// variable t on the strict atoms; P has a point satisfying the strict
// atoms strictly iff the slack optimum t* is positive (or P is plainly
// feasible when there are no strict atoms). For the ≠ atoms, note that a
// convex set contained in a finite union of hyperplanes lies entirely in
// one of them; so the conjunction is satisfiable iff the (slack-interior)
// polyhedron is nonempty and not contained in any single excluded
// hyperplane — decided per hyperplane by maximizing/minimizing its linear
// form over P. A witness avoiding all hyperplanes is then found as a
// random convex combination of the per-hyperplane violating points.
func (e *Engine) satisfiableConj(conj realfmla.Conj, n int) ([]float64, bool, error) {
	var a [][]float64
	var b []float64
	type hyperplane struct {
		atom realfmla.Atom
		c    []float64
		c0   float64
	}
	var nes []hyperplane
	hasStrict := false

	addRow := func(c []float64, rhs float64, strict bool) {
		row := make([]float64, n+1)
		copy(row, c)
		if strict {
			row[n] = 1
			hasStrict = true
		}
		a = append(a, row)
		b = append(b, rhs)
	}
	neg := func(c []float64) []float64 {
		out := make([]float64, len(c))
		for i, v := range c {
			out[i] = -v
		}
		return out
	}
	for _, atom := range conj {
		c, c0, ok := atom.P.LinearForm()
		if !ok {
			return nil, false, fmt.Errorf("core: nonlinear atom %s", atom)
		}
		switch atom.Rel {
		case realfmla.LT:
			addRow(c, -c0, true)
		case realfmla.LE:
			addRow(c, -c0, false)
		case realfmla.GT:
			addRow(neg(c), c0, true)
		case realfmla.GE:
			addRow(neg(c), c0, false)
		case realfmla.EQ:
			addRow(c, -c0, false)
			addRow(neg(c), c0, false)
		case realfmla.NE:
			nes = append(nes, hyperplane{atom: atom, c: c, c0: c0})
		}
	}
	// Bound the search: |z_j| ≤ witnessBox, 0 ≤ t ≤ 1 (t ≥ 0 is implicit in
	// how the slack is used; cap it so maximizing t stays bounded).
	for j := 0; j < n; j++ {
		row := make([]float64, n+1)
		row[j] = 1
		a = append(a, row)
		b = append(b, witnessBox)
		row2 := make([]float64, n+1)
		row2[j] = -1
		a = append(a, row2)
		b = append(b, witnessBox)
	}
	tRow := make([]float64, n+1)
	tRow[n] = 1
	a = append(a, tRow)
	b = append(b, 1)

	// Phase 1: feasibility with maximal strictness slack.
	obj := make([]float64, n+1)
	obj[n] = 1
	sol, err := lp.SolveFree(lp.Problem{C: obj, A: a, B: b})
	if err != nil {
		return nil, false, err
	}
	if sol.Status != lp.Optimal {
		return nil, false, nil
	}
	if hasStrict && sol.Value <= 1e-9 {
		return nil, false, nil // strict system has empty interior
	}
	w0 := append([]float64(nil), sol.X[:n]...)
	if len(nes) == 0 {
		if !conj.Eval(w0) {
			return nil, false, fmt.Errorf("core: LP witness fails verification (numerical)")
		}
		return w0, true, nil
	}

	// Keep subsequent optima inside the strict interior: t ≥ t*/2.
	if hasStrict {
		row := make([]float64, n+1)
		row[n] = -1
		a = append(a, row)
		b = append(b, -sol.Value/2)
	}

	// Phase 2: for each excluded hyperplane find a feasible point off it.
	points := [][]float64{w0}
	for _, h := range nes {
		found := false
		for _, dirSign := range []float64{1, -1} {
			o := make([]float64, n+1)
			for j := range h.c {
				o[j] = dirSign * h.c[j]
			}
			s, err := lp.SolveFree(lp.Problem{C: o, A: a, B: b})
			if err != nil {
				return nil, false, err
			}
			if s.Status != lp.Optimal {
				continue
			}
			p := s.X[:n]
			if math.Abs(h.atom.P.Eval(p)) > 1e-7 {
				points = append(points, append([]float64(nil), p...))
				found = true
				break
			}
		}
		if !found {
			// P (within the strict interior) is contained in the excluded
			// hyperplane: unsatisfiable.
			return nil, false, nil
		}
	}

	// Phase 3: a random convex combination of the collected points avoids
	// every hyperplane almost surely.
	for attempt := 0; attempt < 64; attempt++ {
		weights := make([]float64, len(points))
		sum := 0.0
		for i := range weights {
			weights[i] = e.rand().Float64() + 1e-3
			sum += weights[i]
		}
		w := make([]float64, n)
		for i, p := range points {
			f := weights[i] / sum
			for j := range w {
				w[j] += f * p[j]
			}
		}
		if conj.Eval(w) {
			return w, true, nil
		}
	}
	return nil, false, fmt.Errorf("core: could not separate witness from ≠ constraints")
}

// CertainlyTrue decides whether a linear constraint formula holds for
// every interpretation of the nulls — the classical certain-answer notion
// (here decidable because the constraints are linear): φ is certainly true
// iff ¬φ is unsatisfiable.
func (e *Engine) CertainlyTrue(phi realfmla.Formula) (bool, error) {
	sat, _, err := e.Satisfiable(realfmla.NNF(realfmla.FNot{F: phi}))
	if err != nil {
		return false, err
	}
	return !sat, nil
}
