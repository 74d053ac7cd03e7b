// Package poly implements the small polynomial algebra the paper's
// algorithms need: sparse multivariate polynomials over the reals (the
// left-hand sides of arithmetic atoms after the translation of Prop 5.3),
// and dense univariate polynomials in the ray parameter k (used to decide
// the asymptotic truth of atoms along a direction, Lemma 8.4).
//
// Monomials store only the variables they mention (sparse exponents), so
// the ambient dimension N — the number of numerical nulls of the whole
// database, possibly thousands — costs nothing per term.
package poly

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// VarPow is one variable of a monomial with its positive exponent.
type VarPow struct {
	Var int
	Pow int
}

// Term is one monomial of a multivariate polynomial: a coefficient times a
// product of variables raised to positive exponents. Vars is sorted by
// variable index and mentions only variables with nonzero exponent.
type Term struct {
	Coef float64
	Vars []VarPow
}

// totalDegree is the sum of the exponents.
func (t Term) totalDegree() int {
	d := 0
	for _, v := range t.Vars {
		d += v.Pow
	}
	return d
}

// Poly is a sparse multivariate polynomial in N variables z_0..z_{N-1}.
// Terms are kept normalized: sorted by exponent key, distinct monomials,
// no zero coefficients. The zero polynomial has no terms.
type Poly struct {
	N     int
	Terms []Term
}

// Zero returns the zero polynomial in n variables.
func Zero(n int) Poly { return Poly{N: n} }

// Const returns the constant polynomial c in n variables.
func Const(n int, c float64) Poly {
	if c == 0 {
		return Zero(n)
	}
	return Poly{N: n, Terms: []Term{{Coef: c}}}
}

// Var returns the polynomial z_i in n variables.
func Var(n, i int) Poly {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("poly: variable %d out of range [0,%d)", i, n))
	}
	return Poly{N: n, Terms: []Term{{Coef: 1, Vars: []VarPow{{Var: i, Pow: 1}}}}}
}

// varsLess orders monomials lexicographically by (Var, Pow) sequences.
func varsLess(a, b []VarPow) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Var != b[i].Var {
			return a[i].Var < b[i].Var
		}
		if a[i].Pow != b[i].Pow {
			return a[i].Pow < b[i].Pow
		}
	}
	return len(a) < len(b)
}

func varsEqual(a, b []VarPow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mulVars merges two sorted exponent lists, summing powers.
func mulVars(a, b []VarPow) []VarPow {
	out := make([]VarPow, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Var < b[j].Var:
			out = append(out, a[i])
			i++
		case a[i].Var > b[j].Var:
			out = append(out, b[j])
			j++
		default:
			out = append(out, VarPow{Var: a[i].Var, Pow: a[i].Pow + b[j].Pow})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// sortTerms orders ts by monomial with an in-place insertion sort: the
// term lists of this package are short (a handful of monomials), and
// unlike sort.Slice this allocates nothing — it runs in the executor's
// per-derivation hot path — and is stable, so the merge order of equal
// monomials is a deterministic function of the construction order.
func sortTerms(ts []Term) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && varsLess(ts[j].Vars, ts[j-1].Vars); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// normalizeTerms sorts ts, merges equal monomials and drops zero
// coefficients in place, returning the normalized prefix of ts. It is the
// single normalization algorithm shared by the allocating operations below
// and by the Scratch arena (scratch.go), which is what keeps their results
// bit-identical.
func normalizeTerms(ts []Term) []Term {
	sortTerms(ts)
	out := ts[:0]
	for _, t := range ts {
		if len(out) > 0 && varsEqual(out[len(out)-1].Vars, t.Vars) {
			out[len(out)-1].Coef += t.Coef
			continue
		}
		out = append(out, t)
	}
	kept := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}

// normalize sorts terms, merges equal monomials, and drops zero
// coefficients. It takes ownership of ts.
func normalize(n int, ts []Term) Poly {
	kept := normalizeTerms(ts)
	return Poly{N: n, Terms: append([]Term(nil), kept...)}
}

func (p Poly) checkArity(q Poly) {
	if p.N != q.N {
		panic(fmt.Sprintf("poly: arity mismatch %d vs %d", p.N, q.N))
	}
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	p.checkArity(q)
	ts := make([]Term, 0, len(p.Terms)+len(q.Terms))
	ts = append(ts, p.Terms...)
	ts = append(ts, q.Terms...)
	return normalize(p.N, ts)
}

// Neg returns -p.
func (p Poly) Neg() Poly { return p.Scale(-1) }

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly { return p.Add(q.Neg()) }

// Scale returns c·p.
func (p Poly) Scale(c float64) Poly {
	if c == 0 {
		return Zero(p.N)
	}
	ts := make([]Term, len(p.Terms))
	for i, t := range p.Terms {
		ts[i] = Term{Coef: c * t.Coef, Vars: t.Vars}
	}
	return Poly{N: p.N, Terms: ts}
}

// Mul returns p · q.
func (p Poly) Mul(q Poly) Poly {
	p.checkArity(q)
	ts := make([]Term, 0, len(p.Terms)*len(q.Terms))
	for _, a := range p.Terms {
		for _, b := range q.Terms {
			ts = append(ts, Term{Coef: a.Coef * b.Coef, Vars: mulVars(a.Vars, b.Vars)})
		}
	}
	return normalize(p.N, ts)
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.Terms) == 0 }

// IsConst reports whether p is a constant polynomial and returns its value.
func (p Poly) IsConst() (float64, bool) {
	if p.IsZero() {
		return 0, true
	}
	if len(p.Terms) == 1 && len(p.Terms[0].Vars) == 0 {
		return p.Terms[0].Coef, true
	}
	return 0, false
}

// Degree returns the total degree of p, with Degree(0) = -1.
func (p Poly) Degree() int {
	d := -1
	for _, t := range p.Terms {
		if td := t.totalDegree(); td > d {
			d = td
		}
	}
	return d
}

// Eval evaluates p at the point x (len(x) must equal p.N).
func (p Poly) Eval(x []float64) float64 {
	if len(x) != p.N {
		panic(fmt.Sprintf("poly: Eval with %d values on %d variables", len(x), p.N))
	}
	s := 0.0
	for _, t := range p.Terms {
		m := t.Coef
		for _, v := range t.Vars {
			for j := 0; j < v.Pow; j++ {
				m *= x[v.Var]
			}
		}
		s += m
	}
	return s
}

// IsLinear reports whether every term of p has total degree at most 1.
func (p Poly) IsLinear() bool {
	for _, t := range p.Terms {
		if t.totalDegree() > 1 {
			return false
		}
	}
	return true
}

// LinearForm decomposes a linear polynomial as c·z + c0, returning the
// coefficient vector c (length p.N) and the constant c0. It returns
// ok=false if p is not linear.
func (p Poly) LinearForm() (c []float64, c0 float64, ok bool) {
	if !p.IsLinear() {
		return nil, 0, false
	}
	c = make([]float64, p.N)
	for _, t := range p.Terms {
		if len(t.Vars) == 0 {
			c0 = t.Coef
			continue
		}
		c[t.Vars[0].Var] = t.Coef
	}
	return c, c0, true
}

// SubstituteRay substitutes z_i := k·a_i and returns the resulting dense
// univariate polynomial in k. Each monomial c·∏ z_i^{e_i} contributes
// c·∏ a_i^{e_i} to the coefficient of k^{total degree}. This is the
// computation behind Lemma 8.4 of the paper.
func (p Poly) SubstituteRay(a []float64) Uni {
	return p.SubstituteRayInto(nil, a)
}

// SubstituteRayInto is SubstituteRay writing into dst, growing it only when
// its capacity is insufficient. It returns the (trimmed) result, which
// aliases dst's backing array whenever possible: callers that keep the
// returned slice as their next dst evaluate rays allocation-free. This is
// the inner loop of the AFPRAS sampling kernel.
func (p Poly) SubstituteRayInto(dst Uni, a []float64) Uni {
	if len(a) != p.N {
		panic(fmt.Sprintf("poly: SubstituteRayInto with %d values on %d variables", len(a), p.N))
	}
	deg := p.Degree()
	if deg < 0 {
		return dst[:0]
	}
	if cap(dst) < deg+1 {
		dst = make(Uni, deg+1)
	} else {
		dst = dst[:deg+1]
		for i := range dst {
			dst[i] = 0
		}
	}
	for _, t := range p.Terms {
		m := t.Coef
		d := 0
		for _, v := range t.Vars {
			for j := 0; j < v.Pow; j++ {
				m *= a[v.Var]
			}
			d += v.Pow
		}
		dst[d] += m
	}
	return dst.trim()
}

// SubstituteMixed substitutes z_i := vals[i] for variables with ray[i] ==
// false and z_i := k·vals[i] for variables with ray[i] == true, returning
// the resulting univariate polynomial in k. This generalizes SubstituteRay
// to the range-constrained measures of the paper's Section 10: nulls with
// bounded ranges take finite values while unconstrained nulls still go to
// infinity along a direction.
func (p Poly) SubstituteMixed(vals []float64, ray []bool) Uni {
	return p.SubstituteMixedInto(nil, vals, ray)
}

// SubstituteMixedInto is SubstituteMixed writing into dst, growing it only
// when its capacity is insufficient (see SubstituteRayInto for the reuse
// contract).
func (p Poly) SubstituteMixedInto(dst Uni, vals []float64, ray []bool) Uni {
	if len(vals) != p.N || len(ray) != p.N {
		panic(fmt.Sprintf("poly: SubstituteMixedInto with %d/%d values on %d variables",
			len(vals), len(ray), p.N))
	}
	deg := p.Degree()
	if deg < 0 {
		return dst[:0]
	}
	if cap(dst) < deg+1 {
		dst = make(Uni, deg+1)
	} else {
		dst = dst[:deg+1]
		for i := range dst {
			dst[i] = 0
		}
	}
	for _, t := range p.Terms {
		m := t.Coef
		kdeg := 0
		for _, v := range t.Vars {
			for j := 0; j < v.Pow; j++ {
				m *= vals[v.Var]
			}
			if ray[v.Var] {
				kdeg += v.Pow
			}
		}
		dst[kdeg] += m
	}
	return dst.trim()
}

// Homogenize drops all terms of total degree strictly below the top degree
// of p. For a linear polynomial c·z + c0 this yields c·z, the homogenized
// atom of Section 7.
func (p Poly) Homogenize() Poly {
	d := p.Degree()
	if d <= 0 {
		return p
	}
	ts := make([]Term, 0, len(p.Terms))
	for _, t := range p.Terms {
		if t.totalDegree() == d {
			ts = append(ts, t)
		}
	}
	return Poly{N: p.N, Terms: ts}
}

// DropConstant removes only the degree-0 term of p. For linear atoms this is
// the homogenization used by the FPRAS of Section 7 (c·z < c' becomes
// c·z < 0).
func (p Poly) DropConstant() Poly {
	ts := make([]Term, 0, len(p.Terms))
	for _, t := range p.Terms {
		if t.totalDegree() > 0 {
			ts = append(ts, t)
		}
	}
	return Poly{N: p.N, Terms: ts}
}

// RenameVars re-embeds p into a ring with len(vars) variables, sending
// variable vars[j] to j. vars must be sorted and duplicate-free, so the
// renaming keeps every monomial's variables in order; the method panics if
// p uses a variable vars does not list. It costs O(|p| log |vars|),
// independent of p.N.
func (p Poly) RenameVars(vars []int) Poly {
	n := 0
	for _, t := range p.Terms {
		n += len(t.Vars)
	}
	flat := make([]VarPow, n)
	ts := make([]Term, len(p.Terms))
	for ti, t := range p.Terms {
		vs := flat[:len(t.Vars):len(t.Vars)]
		flat = flat[len(t.Vars):]
		for i, v := range t.Vars {
			j, ok := slices.BinarySearch(vars, v.Var)
			if !ok {
				panic(fmt.Sprintf("poly: RenameVars drops used variable z%d", v.Var))
			}
			vs[i] = VarPow{Var: j, Pow: v.Pow}
		}
		ts[ti] = Term{Coef: t.Coef, Vars: vs}
	}
	return normalize(len(vars), ts)
}

// MapVars renames every variable v to ids[v], in an ambient space of
// ids[len(ids)-1]+1 variables. ids must be strictly increasing: the
// renaming is then monotone, so every term keeps its variable order and
// the terms keep theirs, and the result is normalized without a sort.
func (p Poly) MapVars(ids []int) Poly {
	out := Poly{Terms: make([]Term, len(p.Terms))}
	if len(ids) > 0 {
		out.N = ids[len(ids)-1] + 1
	}
	for ti, t := range p.Terms {
		vs := make([]VarPow, len(t.Vars))
		for i, v := range t.Vars {
			vs[i] = VarPow{Var: ids[v.Var], Pow: v.Pow}
		}
		out.Terms[ti] = Term{Coef: t.Coef, Vars: vs}
	}
	return out
}

// Equal reports syntactic equality of normalized polynomials.
// Coefficients compare at the bit level (Float64bits): Equal guards the
// compiled-kernel cache's fingerprint-collision check, so it must only
// unify polynomials whose evaluation is bit-identical — value equality
// would merge -0/+0 coefficients whose kernels can round differently.
func (p Poly) Equal(q Poly) bool {
	if p.N != q.N || len(p.Terms) != len(q.Terms) {
		return false
	}
	for i := range p.Terms {
		if math.Float64bits(p.Terms[i].Coef) != math.Float64bits(q.Terms[i].Coef) || !varsEqual(p.Terms[i].Vars, q.Terms[i].Vars) {
			return false
		}
	}
	return true
}

// String renders the polynomial with variables named z0..z{N-1}.
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	for i, t := range p.Terms {
		if i > 0 {
			b.WriteString(" + ")
		}
		wrote := false
		if t.Coef != 1 || len(t.Vars) == 0 {
			fmt.Fprintf(&b, "%g", t.Coef)
			wrote = true
		}
		for _, v := range t.Vars {
			if wrote {
				b.WriteString("·")
			}
			fmt.Fprintf(&b, "z%d", v.Var)
			if v.Pow > 1 {
				fmt.Fprintf(&b, "^%d", v.Pow)
			}
			wrote = true
		}
	}
	return b.String()
}

// Uni is a dense univariate polynomial in the ray parameter k:
// Uni{c0, c1, c2} is c0 + c1·k + c2·k². The empty slice is the zero
// polynomial. Coefficients at the high end are kept trimmed of exact zeros.
type Uni []float64

func (u Uni) trim() Uni {
	n := len(u)
	for n > 0 && u[n-1] == 0 {
		n--
	}
	return u[:n]
}

// Add returns u + v.
func (u Uni) Add(v Uni) Uni {
	if len(v) > len(u) {
		u, v = v, u
	}
	out := make(Uni, len(u))
	copy(out, u)
	for i, c := range v {
		out[i] += c
	}
	return out.trim()
}

// Mul returns u · v.
func (u Uni) Mul(v Uni) Uni {
	if len(u) == 0 || len(v) == 0 {
		return Uni{}
	}
	out := make(Uni, len(u)+len(v)-1)
	for i, a := range u {
		if a == 0 {
			continue
		}
		for j, b := range v {
			out[i+j] += a * b
		}
	}
	return out.trim()
}

// Neg returns -u.
func (u Uni) Neg() Uni {
	out := make(Uni, len(u))
	for i, c := range u {
		out[i] = -c
	}
	return out
}

// Sub returns u - v.
func (u Uni) Sub(v Uni) Uni { return u.Add(v.Neg()) }

// Eval evaluates u at k by Horner's rule.
func (u Uni) Eval(k float64) float64 {
	s := 0.0
	for i := len(u) - 1; i >= 0; i-- {
		s = s*k + u[i]
	}
	return s
}

// AsymptoticSign returns the sign of u(k) for all sufficiently large k > 0:
// the sign of the leading coefficient, treating coefficients with absolute
// value below tol as zero (guarding against floating-point noise from the
// substitution). The zero polynomial has sign 0.
func (u Uni) AsymptoticSign(tol float64) int {
	for i := len(u) - 1; i >= 0; i-- {
		c := u[i]
		if math.Abs(c) <= tol {
			continue
		}
		if c > 0 {
			return 1
		}
		return -1
	}
	return 0
}

// Degree returns the degree of u, with Degree(0) = -1.
func (u Uni) Degree() int { return len(u.trim()) - 1 }
