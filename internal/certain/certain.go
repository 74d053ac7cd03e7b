// Package certain implements the classical baselines the paper builds on:
//
//   - naive evaluation of queries over incomplete databases (nulls treated
//     as fresh distinct constants), which by the zero-one law of [27]
//     (Libkin, PODS'18) computes exactly the almost-certain answers for
//     generic queries — the K = 0 degenerate case of the paper's measure;
//   - a bounded-search demonstration of Prop 4.1's undecidability source:
//     certain answers of CQ(+,·,<) over ℤ embed Hilbert's 10th problem,
//     because a polynomial has an integer root iff the query
//     ∃x̄ R(x̄) ∧ p² > 0 is not certainly true.
package certain

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/fo"
	"repro/internal/poly"
	"repro/internal/schema"
	"repro/internal/value"
)

// usesInterpretedOps reports whether the query uses arithmetic or order —
// operations that break genericity, outside the scope of naive evaluation.
func usesInterpretedOps(f fo.Formula) bool {
	a := fo.Arithmetic(f)
	if a.UsesOrder || a.UsesAdd || a.UsesMul {
		return true
	}
	return false
}

// NaiveEval evaluates a generic (arithmetic- and order-free) Boolean-or-
// open query over an incomplete database by treating every null as a fresh
// constant distinct from all others, and returns whether the given answer
// tuple is produced. By [27], for generic queries this decides
// "almost-certainly an answer" (measure 1), the notion the paper's μ
// generalizes. It returns an error if the query uses interpreted
// operations (+, ·, <), for which genericity fails.
func NaiveEval(q *fo.Query, d *db.Database, args []value.Value) (bool, error) {
	if err := fo.Typecheck(q, d.Schema()); err != nil {
		return false, err
	}
	if usesInterpretedOps(q.Body) {
		return false, fmt.Errorf("certain: naive evaluation requires a generic query (no arithmetic or order)")
	}
	// Bijective base valuation; numerical nulls likewise get fresh distinct
	// values (genericity makes the particular choice irrelevant, as long as
	// the values are distinct from everything else).
	complete, vbase := freshCompletion(d)
	inst, err := fo.FromComplete(complete)
	if err != nil {
		return false, err
	}
	cargs := make([]fo.Cell[float64], len(args))
	for i, a := range args {
		v, err := freshValue(a, vbase)
		if err != nil {
			return false, err
		}
		c, err := fo.CellForCompleteValue(v)
		if err != nil {
			return false, err
		}
		cargs[i] = c
	}
	return fo.Eval(q, inst, cargs)
}

// freshCompletion replaces base nulls by reserved fresh constants and
// numerical nulls by fresh distinct values chosen away from the database's
// constants.
func freshCompletion(d *db.Database) (*db.Database, *db.Valuation) {
	v := db.NewValuation()
	for _, id := range d.BaseNulls() {
		v.Base[id] = fo.FreshBaseName(id)
	}
	// Fresh numerical values: strictly above every constant, pairwise
	// distinct.
	max := 0.0
	for _, c := range d.NumConstants() {
		if c > max {
			max = c
		}
	}
	for i, id := range d.NumNulls() {
		v.Num[id] = max + 1 + float64(i)
	}
	out, err := v.Apply(d)
	if err != nil {
		// Unreachable: the valuation covers every null by construction.
		panic(err)
	}
	return out, v
}

func freshValue(a value.Value, v *db.Valuation) (value.Value, error) {
	switch a.Kind() {
	case value.BaseNull, value.NumNull:
		return v.Value(a)
	default:
		return a, nil
	}
}

// HasIntegerRoot searches for an integer root of the multivariate
// polynomial p with all |x_i| ≤ bound, by exhaustive search. This is the
// bounded version of the undecidable question underlying Prop 4.1: the
// certain-answer problem for CQ(+,·,<) over ℤ is undecidable because
// "p has no integer root" is equivalent to a certain answer of
// ∃x̄ R(x̄) ∧ p² > 0 over a single-tuple database of nulls. No bounded
// search can decide the general problem — that is the point — but the
// search makes the reduction executable on small instances.
func HasIntegerRoot(p poly.Poly, bound int) (root []float64, found bool) {
	if bound < 0 {
		return nil, false
	}
	x := make([]float64, p.N)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.N {
			return p.Eval(x) == 0
		}
		for v := -bound; v <= bound; v++ {
			x[i] = float64(v)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	if rec(0) {
		return x, true
	}
	return nil, false
}

// DiophantineQuery builds the Prop 4.1 query and database for a polynomial
// p ∈ ℤ[x₁..x_k]: R(num^k) holds the single all-null tuple and the query
// is ∃x̄ . R(x̄) ∧ p(x̄)·p(x̄) > 0. The query is a certain answer over
// integer-valued interpretations iff p has no integer root.
func DiophantineQuery(p poly.Poly) (*fo.Query, *db.Database, error) {
	if p.N == 0 {
		return nil, nil, fmt.Errorf("certain: polynomial must have at least one variable")
	}
	cols := make([]string, p.N)
	relCols := make([]schema.Column, p.N)
	tup := make(value.Tuple, p.N)
	for i := range cols {
		cols[i] = fmt.Sprintf("x%d", i)
		relCols[i] = schema.Column{Name: cols[i], Type: schema.Num}
		tup[i] = value.NullNum(i)
	}
	d := db.New(schema.MustNew(schema.MustRelation("R", relCols...)))
	if err := d.Insert("R", tup); err != nil {
		return nil, nil, err
	}
	// Build the term p(x̄) as an fo.Term.
	var body fo.Term = fo.NumConst{Value: 0}
	first := true
	for _, t := range p.Terms {
		var mono fo.Term = fo.NumConst{Value: t.Coef}
		for _, vp := range t.Vars {
			for j := 0; j < vp.Pow; j++ {
				mono = fo.Mul{L: mono, R: fo.Var{Name: cols[vp.Var]}}
			}
		}
		if first {
			body = mono
			first = false
		} else {
			body = fo.Add{L: body, R: mono}
		}
	}
	atomArgs := make([]fo.Term, p.N)
	for i := range atomArgs {
		atomArgs[i] = fo.Var{Name: cols[i]}
	}
	var f fo.Formula = fo.And{
		L: fo.Atom{Rel: "R", Args: atomArgs},
		R: fo.Cmp{Op: fo.Gt, L: fo.Mul{L: body, R: body}, R: fo.NumConst{Value: 0}},
	}
	for i := p.N - 1; i >= 0; i-- {
		f = fo.Exists{Var: cols[i], Sort: fo.SortNum, Body: f}
	}
	return &fo.Query{Name: "q", Body: f}, d, nil
}
