// Package realfmla implements quantifier-free formulas over the real field
// ⟨ℝ, +, ·, <⟩: Boolean combinations of polynomial sign conditions. The
// translation of Prop 5.3 turns a query, database and candidate answer into
// such a formula φ(z₁..z_k) over the numerical nulls, and the measure
// μ(q,D,(a,s)) equals ν(φ), the asymptotic volume fraction of φ's
// satisfying set (Theorem 5.4). The package supports point evaluation,
// asymptotic evaluation along a ray (Lemma 8.4), NNF/DNF normalization and
// homogenization of linear formulas (Section 7).
package realfmla

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/poly"
)

// Rel is the relation of an atomic sign condition p(z) Rel 0.
type Rel uint8

// Sign relations.
const (
	LT Rel = iota
	LE
	EQ
	NE
	GE
	GT
)

// String renders the relation symbol.
func (r Rel) String() string {
	switch r {
	case LT:
		return "<"
	case LE:
		return "<="
	case EQ:
		return "="
	case NE:
		return "!="
	case GE:
		return ">="
	case GT:
		return ">"
	}
	return "?"
}

// Negate returns the complementary relation (¬(p<0) is p≥0, etc.).
func (r Rel) Negate() Rel {
	switch r {
	case LT:
		return GE
	case LE:
		return GT
	case EQ:
		return NE
	case NE:
		return EQ
	case GE:
		return LT
	case GT:
		return LE
	}
	return r
}

// Holds reports whether "v Rel 0", the decision Atom.Eval makes on a
// constant polynomial with value v (NaN has sign 0, like the dropped
// zero-coefficient term it mirrors).
func (r Rel) Holds(v float64) bool {
	switch {
	case v < 0:
		return r.holds(-1)
	case v > 0:
		return r.holds(1)
	default:
		return r.holds(0)
	}
}

// holds reports whether "sign Rel 0" for a sign in {-1,0,1}.
func (r Rel) holds(sign int) bool {
	switch r {
	case LT:
		return sign < 0
	case LE:
		return sign <= 0
	case EQ:
		return sign == 0
	case NE:
		return sign != 0
	case GE:
		return sign >= 0
	case GT:
		return sign > 0
	}
	return false
}

// Atom is the sign condition P Rel 0.
type Atom struct {
	P   poly.Poly
	Rel Rel
}

// String renders "P < 0" style.
func (a Atom) String() string { return fmt.Sprintf("%s %s 0", a.P, a.Rel) }

// Eval evaluates the atom at a point.
func (a Atom) Eval(x []float64) bool {
	v := a.P.Eval(x)
	switch {
	case v < 0:
		return a.Rel.holds(-1)
	case v > 0:
		return a.Rel.holds(1)
	default:
		return a.Rel.holds(0)
	}
}

// AsymEval reports whether the atom holds at k·a for all sufficiently
// large k (Lemma 8.4): substitute the ray, take the sign of the leading
// coefficient.
func (a Atom) AsymEval(dir []float64, tol float64) bool {
	return a.Rel.holds(a.P.SubstituteRay(dir).AsymptoticSign(tol))
}

// MixedAsymEval reports whether the atom eventually holds when variables
// with ray[i] true go to infinity along vals[i] while the others are fixed
// at vals[i] — the evaluation mode of range-constrained measures
// (Section 10 of the paper).
func (a Atom) MixedAsymEval(vals []float64, ray []bool, tol float64) bool {
	return a.Rel.holds(a.P.SubstituteMixed(vals, ray).AsymptoticSign(tol))
}

// Formula is a quantifier-free formula over the reals.
type Formula interface {
	fmt.Stringer
	isFormula()
}

// FAtom wraps an atom as a formula.
type FAtom struct{ A Atom }

// FTrue is the true formula.
type FTrue struct{}

// FFalse is the false formula.
type FFalse struct{}

// FNot is negation.
type FNot struct{ F Formula }

// FAnd is n-ary conjunction (empty = true).
type FAnd struct{ Fs []Formula }

// FOr is n-ary disjunction (empty = false).
type FOr struct{ Fs []Formula }

func (FAtom) isFormula()  {}
func (FTrue) isFormula()  {}
func (FFalse) isFormula() {}
func (FNot) isFormula()   {}
func (FAnd) isFormula()   {}
func (FOr) isFormula()    {}

// String renders the formula.
func (f FAtom) String() string { return f.A.String() }
func (FTrue) String() string   { return "true" }
func (FFalse) String() string  { return "false" }
func (f FNot) String() string  { return "¬(" + f.F.String() + ")" }
func (f FAnd) String() string  { return nary("∧", f.Fs, "true") }
func (f FOr) String() string   { return nary("∨", f.Fs, "false") }

func nary(op string, fs []Formula, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, g := range fs {
		parts[i] = g.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}

// And builds a conjunction, flattening nested FAnds and dropping FTrue.
func And(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch x := f.(type) {
		case FTrue:
		case FFalse:
			return FFalse{}
		case FAnd:
			out = append(out, x.Fs...)
		default:
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return FTrue{}
	}
	if len(out) == 1 {
		return out[0]
	}
	return FAnd{out}
}

// Or builds a disjunction, flattening nested FOrs and dropping FFalse.
func Or(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch x := f.(type) {
		case FFalse:
		case FTrue:
			return FTrue{}
		case FOr:
			out = append(out, x.Fs...)
		default:
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return FFalse{}
	}
	if len(out) == 1 {
		return out[0]
	}
	return FOr{out}
}

// Eval evaluates the formula at a point x ∈ ℝⁿ.
func Eval(f Formula, x []float64) bool {
	switch g := f.(type) {
	case FTrue:
		return true
	case FFalse:
		return false
	case FAtom:
		return g.A.Eval(x)
	case FNot:
		return !Eval(g.F, x)
	case FAnd:
		for _, h := range g.Fs {
			if !Eval(h, x) {
				return false
			}
		}
		return true
	case FOr:
		for _, h := range g.Fs {
			if Eval(h, x) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("realfmla: unknown node %T", f))
}

// AsymEval reports lim_{k→∞} f_{φ,dir}(k): whether φ holds at k·dir for
// all sufficiently large k. Every atom is eventually constant along a ray
// (its substituted univariate polynomial has finitely many zeros, Lemma
// 8.2), so the limit of the Boolean combination exists and is computed by
// combining the per-atom limits.
func AsymEval(f Formula, dir []float64, tol float64) bool {
	switch g := f.(type) {
	case FTrue:
		return true
	case FFalse:
		return false
	case FAtom:
		return g.A.AsymEval(dir, tol)
	case FNot:
		return !AsymEval(g.F, dir, tol)
	case FAnd:
		for _, h := range g.Fs {
			if !AsymEval(h, dir, tol) {
				return false
			}
		}
		return true
	case FOr:
		for _, h := range g.Fs {
			if AsymEval(h, dir, tol) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("realfmla: unknown node %T", f))
}

// Atoms returns all atoms of the formula (with multiplicity).
func Atoms(f Formula) []Atom {
	var out []Atom
	walkAtoms(f, func(a Atom) bool {
		out = append(out, a)
		return true
	})
	return out
}

// walkAtoms calls fn on the atoms of f, left to right, until fn returns
// false; it reports whether the walk ran to the end.
func walkAtoms(f Formula, fn func(Atom) bool) bool {
	switch g := f.(type) {
	case FAtom:
		return fn(g.A)
	case FNot:
		return walkAtoms(g.F, fn)
	case FAnd:
		for _, h := range g.Fs {
			if !walkAtoms(h, fn) {
				return false
			}
		}
	case FOr:
		for _, h := range g.Fs {
			if !walkAtoms(h, fn) {
				return false
			}
		}
	}
	return true
}

// FormulaID is a 128-bit structural fingerprint of a formula's syntax
// tree. Syntactically equal formulas always have equal IDs; distinct
// formulas are overwhelmingly unlikely to collide, but the hash is not
// cryptographic, so callers using it as a cache key should confirm a hit
// with Equal (a collision then costs a recompute, never a wrong result).
type FormulaID [2]uint64

// Equal reports syntactic equality of two formulas.
func Equal(a, b Formula) bool {
	switch x := a.(type) {
	case FTrue:
		_, ok := b.(FTrue)
		return ok
	case FFalse:
		_, ok := b.(FFalse)
		return ok
	case FAtom:
		y, ok := b.(FAtom)
		return ok && x.A.Rel == y.A.Rel && x.A.P.Equal(y.A.P)
	case FNot:
		y, ok := b.(FNot)
		return ok && Equal(x.F, y.F)
	case FAnd:
		y, ok := b.(FAnd)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !Equal(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	case FOr:
		y, ok := b.(FOr)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !Equal(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	}
	panic(fmt.Sprintf("realfmla: unknown node %T", a))
}

// Fingerprint computes the FormulaID of f without allocating — unlike a
// canonical string key, it can run once per measure call on hot paths.
func Fingerprint(f Formula) FormulaID {
	h := newFPHash()
	h.formula(f)
	return FormulaID{h.a, h.b}
}

// fpHash runs two independent word-wise FNV-style streams.
type fpHash struct{ a, b uint64 }

func newFPHash() fpHash { return fpHash{a: 1469598103934665603, b: 0x9ae16a3b2f90404f} }

func (h *fpHash) word(w uint64) {
	h.a = (h.a ^ w) * 1099511628211
	h.b = (h.b ^ (w<<31 | w>>33)) * 0x9e3779b97f4a7c15
}

func (h *fpHash) formula(f Formula) {
	switch g := f.(type) {
	case FTrue:
		h.word(1)
	case FFalse:
		h.word(2)
	case FAtom:
		h.word(3)
		h.atom(g.A)
	case FNot:
		h.word(4)
		h.formula(g.F)
	case FAnd:
		h.word(5)
		h.word(uint64(len(g.Fs)))
		for _, k := range g.Fs {
			h.formula(k)
		}
	case FOr:
		h.word(6)
		h.word(uint64(len(g.Fs)))
		for _, k := range g.Fs {
			h.formula(k)
		}
	default:
		panic(fmt.Sprintf("realfmla: unknown node %T", f))
	}
}

// atom hashes an atom's relation, arity and terms; Compile dedupes atoms
// by it.
func (h *fpHash) atom(a Atom) {
	h.word(uint64(a.Rel))
	h.word(uint64(a.P.N))
	h.word(uint64(len(a.P.Terms)))
	for _, t := range a.P.Terms {
		h.word(math.Float64bits(t.Coef))
		h.word(uint64(len(t.Vars)))
		for _, v := range t.Vars {
			h.word(uint64(v.Var))
			h.word(uint64(v.Pow))
		}
	}
}

// NumVars returns the number of variables of the ambient polynomial ring,
// read from the first atom (0 if the formula has no atoms).
func NumVars(f Formula) int {
	n := 0
	walkAtoms(f, func(a Atom) bool {
		n = a.P.N
		return false
	})
	return n
}

// IsLinear reports whether every atom's polynomial is linear.
func IsLinear(f Formula) bool {
	return walkAtoms(f, func(a Atom) bool { return a.P.IsLinear() })
}

// NNF pushes negations to the atoms (which absorb them by flipping the
// relation), eliminating FNot nodes.
func NNF(f Formula) Formula {
	return nnf(f, false)
}

func nnf(f Formula, neg bool) Formula {
	switch g := f.(type) {
	case FTrue:
		if neg {
			return FFalse{}
		}
		return FTrue{}
	case FFalse:
		if neg {
			return FTrue{}
		}
		return FFalse{}
	case FAtom:
		if neg {
			return FAtom{Atom{P: g.A.P, Rel: g.A.Rel.Negate()}}
		}
		return g
	case FNot:
		return nnf(g.F, !neg)
	case FAnd:
		out := make([]Formula, len(g.Fs))
		for i, h := range g.Fs {
			out[i] = nnf(h, neg)
		}
		if neg {
			return Or(out...)
		}
		return And(out...)
	case FOr:
		out := make([]Formula, len(g.Fs))
		for i, h := range g.Fs {
			out[i] = nnf(h, neg)
		}
		if neg {
			return And(out...)
		}
		return Or(out...)
	}
	panic(fmt.Sprintf("realfmla: unknown node %T", f))
}

// Conj is one disjunct of a DNF: a conjunction of atoms.
type Conj []Atom

// Eval evaluates the conjunction at a point.
func (c Conj) Eval(x []float64) bool {
	for _, a := range c {
		if !a.Eval(x) {
			return false
		}
	}
	return true
}

// ErrDNFTooLarge is returned by ToDNF when the normal form would exceed the
// requested size limit.
var ErrDNFTooLarge = fmt.Errorf("realfmla: DNF exceeds size limit")

// ToDNF converts the formula to disjunctive normal form, returning the list
// of disjuncts. maxDisjuncts bounds the blowup; 0 means no limit. The input
// is first put into NNF.
func ToDNF(f Formula, maxDisjuncts int) ([]Conj, error) {
	return dnf(NNF(f), maxDisjuncts)
}

func dnf(f Formula, limit int) ([]Conj, error) {
	switch g := f.(type) {
	case FTrue:
		return []Conj{{}}, nil
	case FFalse:
		return nil, nil
	case FAtom:
		return []Conj{{g.A}}, nil
	case FOr:
		var out []Conj
		for _, h := range g.Fs {
			ds, err := dnf(h, limit)
			if err != nil {
				return nil, err
			}
			out = append(out, ds...)
			if limit > 0 && len(out) > limit {
				return nil, ErrDNFTooLarge
			}
		}
		return out, nil
	case FAnd:
		out := []Conj{{}}
		for _, h := range g.Fs {
			ds, err := dnf(h, limit)
			if err != nil {
				return nil, err
			}
			var next []Conj
			for _, c := range out {
				for _, d := range ds {
					merged := make(Conj, 0, len(c)+len(d))
					merged = append(merged, c...)
					merged = append(merged, d...)
					next = append(next, merged)
					if limit > 0 && len(next) > limit {
						return nil, ErrDNFTooLarge
					}
				}
			}
			out = next
		}
		return out, nil
	case FNot:
		return nil, fmt.Errorf("realfmla: dnf on non-NNF input")
	}
	panic(fmt.Sprintf("realfmla: unknown node %T", f))
}

// HomogenizeLinear replaces every linear atom c·z + c0 Rel 0 by its
// homogenized version c·z Rel 0 (constant atoms collapse to true/false by
// their asymptotic truth: the constant keeps its sign). This is the ~φ of
// Section 7: for linear formulas, ν(φ) equals the volume fraction of the
// homogenized formula inside the unit ball. It returns an error if some
// atom is not linear.
func HomogenizeLinear(f Formula) (Formula, error) {
	switch g := f.(type) {
	case FTrue, FFalse:
		return g, nil
	case FAtom:
		if !g.A.P.IsLinear() {
			return nil, fmt.Errorf("realfmla: HomogenizeLinear on nonlinear atom %s", g.A)
		}
		h := g.A.P.DropConstant()
		if h.IsZero() {
			// Constant atom: its truth is decided by the constant's sign.
			c, _ := g.A.P.IsConst()
			sign := 0
			if c > 0 {
				sign = 1
			} else if c < 0 {
				sign = -1
			}
			if g.A.Rel.holds(sign) {
				return FTrue{}, nil
			}
			return FFalse{}, nil
		}
		return FAtom{Atom{P: h, Rel: g.A.Rel}}, nil
	case FNot:
		h, err := HomogenizeLinear(g.F)
		if err != nil {
			return nil, err
		}
		return FNot{h}, nil
	case FAnd:
		out := make([]Formula, len(g.Fs))
		for i, h := range g.Fs {
			hh, err := HomogenizeLinear(h)
			if err != nil {
				return nil, err
			}
			out[i] = hh
		}
		return And(out...), nil
	case FOr:
		out := make([]Formula, len(g.Fs))
		for i, h := range g.Fs {
			hh, err := HomogenizeLinear(h)
			if err != nil {
				return nil, err
			}
			out[i] = hh
		}
		return Or(out...), nil
	}
	panic(fmt.Sprintf("realfmla: unknown node %T", f))
}
