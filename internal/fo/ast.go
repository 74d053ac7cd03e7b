// Package fo implements the paper's query language: two-sorted first-order
// logic with arithmetic, FO(+,·,<), over schemas with base-typed and
// numerical columns. It provides the AST, a two-sorted typechecker, a text
// parser, and an evaluator that is generic over the numeric carrier — the
// same evaluation code runs over complete databases (carrier float64) and
// over "asymptotic reals" (univariate polynomials in the ray parameter k),
// which is how the AFPRAS of Section 8 decides lim_k f_{φ,a}(k) without
// materializing the translated formula.
package fo

import (
	"fmt"
	"sort"
	"strings"
)

// Sort is the sort of a variable or term: base or numerical.
type Sort uint8

const (
	// SortBase is the uninterpreted base sort.
	SortBase Sort = iota
	// SortNum is the numerical sort (a subset of ℝ).
	SortNum
)

// String returns "base" or "num".
func (s Sort) String() string {
	if s == SortNum {
		return "num"
	}
	return "base"
}

// Term is a term of the language. Base-type terms are variables and
// constants; numerical terms are additionally closed under + and ·
// (with - and constant division as definable shortcuts, kept in the AST
// for faithful printing).
type Term interface {
	fmt.Stringer
	isTerm()
}

// Var is a variable occurrence. Its sort is determined by its binder
// (quantifier or query head) during typechecking.
type Var struct{ Name string }

// BaseConst is a constant of the base sort.
type BaseConst struct{ Value string }

// NumConst is a constant of the numerical sort.
type NumConst struct{ Value float64 }

// Add is the numerical term L + R.
type Add struct{ L, R Term }

// Sub is the numerical term L - R (shortcut: L - R < t is L < R + t).
type Sub struct{ L, R Term }

// Mul is the numerical term L · R.
type Mul struct{ L, R Term }

// Neg is the numerical term -X.
type Neg struct{ X Term }

func (Var) isTerm()       {}
func (BaseConst) isTerm() {}
func (NumConst) isTerm()  {}
func (Add) isTerm()       {}
func (Sub) isTerm()       {}
func (Mul) isTerm()       {}
func (Neg) isTerm()       {}

// String renders the term in the parser's input syntax.
func (t Var) String() string       { return t.Name }
func (t BaseConst) String() string { return fmt.Sprintf("%q", t.Value) }
func (t NumConst) String() string  { return fmt.Sprintf("%g", t.Value) }
func (t Add) String() string       { return fmt.Sprintf("(%s + %s)", t.L, t.R) }
func (t Sub) String() string       { return fmt.Sprintf("(%s - %s)", t.L, t.R) }
func (t Mul) String() string       { return fmt.Sprintf("(%s * %s)", t.L, t.R) }
func (t Neg) String() string       { return fmt.Sprintf("(-%s)", t.X) }

// CmpOp is a comparison operator between numerical terms.
type CmpOp uint8

// Comparison operators. Only < and = are primitive in the paper; the rest
// are the standard shortcuts.
const (
	Lt CmpOp = iota
	Le
	EqNum
	NeNum
	Ge
	Gt
)

// String renders the operator symbol.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case EqNum:
		return "="
	case NeNum:
		return "!="
	case Ge:
		return ">="
	case Gt:
		return ">"
	}
	return "?"
}

// Formula is a formula of FO(+,·,<).
type Formula interface {
	fmt.Stringer
	isFormula()
}

// Atom is a relational atom R(t1, ..., tn).
type Atom struct {
	Rel  string
	Args []Term
}

// BaseEq is equality between base-sort terms.
type BaseEq struct{ L, R Term }

// Cmp is an arithmetic comparison between numerical terms.
type Cmp struct {
	Op   CmpOp
	L, R Term
}

// Not is negation.
type Not struct{ F Formula }

// And is conjunction.
type And struct{ L, R Formula }

// Or is disjunction.
type Or struct{ L, R Formula }

// Implies is implication (shortcut for ¬L ∨ R).
type Implies struct{ L, R Formula }

// Exists is an existential quantifier binding one typed variable.
type Exists struct {
	Var  string
	Sort Sort
	Body Formula
}

// Forall is a universal quantifier binding one typed variable.
type Forall struct {
	Var  string
	Sort Sort
	Body Formula
}

// True is the always-true formula (useful for building queries
// programmatically).
type True struct{}

// False is the always-false formula.
type False struct{}

func (Atom) isFormula()    {}
func (BaseEq) isFormula()  {}
func (Cmp) isFormula()     {}
func (Not) isFormula()     {}
func (And) isFormula()     {}
func (Or) isFormula()      {}
func (Implies) isFormula() {}
func (Exists) isFormula()  {}
func (Forall) isFormula()  {}
func (True) isFormula()    {}
func (False) isFormula()   {}

// String renders the formula in the parser's input syntax.
func (f Atom) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Rel, strings.Join(args, ", "))
}

func (f BaseEq) String() string  { return fmt.Sprintf("%s == %s", f.L, f.R) }
func (f Cmp) String() string     { return fmt.Sprintf("%s %s %s", f.L, f.Op, f.R) }
func (f Not) String() string     { return fmt.Sprintf("not (%s)", f.F) }
func (f And) String() string     { return fmt.Sprintf("(%s and %s)", f.L, f.R) }
func (f Or) String() string      { return fmt.Sprintf("(%s or %s)", f.L, f.R) }
func (f Implies) String() string { return fmt.Sprintf("(%s -> %s)", f.L, f.R) }
func (f Exists) String() string {
	return fmt.Sprintf("exists %s:%s . (%s)", f.Var, f.Sort, f.Body)
}
func (f Forall) String() string {
	return fmt.Sprintf("forall %s:%s . (%s)", f.Var, f.Sort, f.Body)
}
func (True) String() string  { return "true" }
func (False) String() string { return "false" }

// AndAll folds a list of formulas with conjunction; the empty conjunction
// is True.
func AndAll(fs ...Formula) Formula {
	var out Formula = True{}
	for i, f := range fs {
		if i == 0 {
			out = f
		} else {
			out = And{out, f}
		}
	}
	return out
}

// FreeVar is a free variable of a query together with its declared sort.
type FreeVar struct {
	Name string
	Sort Sort
}

// Query is a query q(x̄, ȳ): a formula with an ordered list of typed free
// variables. Boolean queries have no free variables.
type Query struct {
	Name string
	Free []FreeVar
	Body Formula
}

// String renders "q(x:base, y:num) := body".
func (q *Query) String() string {
	frees := make([]string, len(q.Free))
	for i, fv := range q.Free {
		frees[i] = fmt.Sprintf("%s:%s", fv.Name, fv.Sort)
	}
	name := q.Name
	if name == "" {
		name = "q"
	}
	return fmt.Sprintf("%s(%s) := %s", name, strings.Join(frees, ", "), q.Body)
}

// freeVarsTerm accumulates variable names of a term.
func freeVarsTerm(t Term, out map[string]bool) {
	switch x := t.(type) {
	case Var:
		out[x.Name] = true
	case Add:
		freeVarsTerm(x.L, out)
		freeVarsTerm(x.R, out)
	case Sub:
		freeVarsTerm(x.L, out)
		freeVarsTerm(x.R, out)
	case Mul:
		freeVarsTerm(x.L, out)
		freeVarsTerm(x.R, out)
	case Neg:
		freeVarsTerm(x.X, out)
	}
}

// FreeVars returns the free variable names of the formula, sorted.
func FreeVars(f Formula) []string {
	set := make(map[string]bool)
	collectFree(f, set, make(map[string]int))
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectFree(f Formula, out map[string]bool, bound map[string]int) {
	addTerm := func(t Term) {
		vars := make(map[string]bool)
		freeVarsTerm(t, vars)
		for v := range vars {
			if bound[v] == 0 {
				out[v] = true
			}
		}
	}
	switch x := f.(type) {
	case Atom:
		for _, a := range x.Args {
			addTerm(a)
		}
	case BaseEq:
		addTerm(x.L)
		addTerm(x.R)
	case Cmp:
		addTerm(x.L)
		addTerm(x.R)
	case Not:
		collectFree(x.F, out, bound)
	case And:
		collectFree(x.L, out, bound)
		collectFree(x.R, out, bound)
	case Or:
		collectFree(x.L, out, bound)
		collectFree(x.R, out, bound)
	case Implies:
		collectFree(x.L, out, bound)
		collectFree(x.R, out, bound)
	case Exists:
		bound[x.Var]++
		collectFree(x.Body, out, bound)
		bound[x.Var]--
	case Forall:
		bound[x.Var]++
		collectFree(x.Body, out, bound)
		bound[x.Var]--
	}
}

// IsConjunctive reports whether the query body lies in the ∃,∧-fragment
// (conjunctive queries, possibly with comparison atoms). Implication,
// disjunction, negation and universal quantification disqualify it.
func IsConjunctive(f Formula) bool {
	switch x := f.(type) {
	case Atom, BaseEq, Cmp, True:
		return true
	case And:
		return IsConjunctive(x.L) && IsConjunctive(x.R)
	case Exists:
		return IsConjunctive(x.Body)
	default:
		return false
	}
}

// CountQuantifiers returns the number of base-sort and numerical-sort
// quantifiers in the formula. Active-domain evaluation and translation
// cost |domain|^quantifiers, so callers use the counts for cost guards.
func CountQuantifiers(f Formula) (base, num int) {
	switch x := f.(type) {
	case Not:
		return CountQuantifiers(x.F)
	case And:
		b1, n1 := CountQuantifiers(x.L)
		b2, n2 := CountQuantifiers(x.R)
		return b1 + b2, n1 + n2
	case Or:
		b1, n1 := CountQuantifiers(x.L)
		b2, n2 := CountQuantifiers(x.R)
		return b1 + b2, n1 + n2
	case Implies:
		b1, n1 := CountQuantifiers(x.L)
		b2, n2 := CountQuantifiers(x.R)
		return b1 + b2, n1 + n2
	case Exists:
		b, n := CountQuantifiers(x.Body)
		if x.Sort == SortBase {
			return b + 1, n
		}
		return b, n + 1
	case Forall:
		b, n := CountQuantifiers(x.Body)
		if x.Sort == SortBase {
			return b + 1, n
		}
		return b, n + 1
	}
	return 0, 0
}

// MaxArithmetic describes which arithmetic a formula uses.
type MaxArithmetic struct {
	UsesOrder bool // any of <, <=, >, >=, != between numerical terms
	UsesAdd   bool // + or - anywhere in a term
	UsesMul   bool // · between two non-constant terms
}

// Arithmetic inspects the formula and reports which operations it uses;
// multiplication by a constant counts as linear (UsesAdd), matching the
// classes CQ(<), CQ(+,<), FO(+,·,<) of the paper.
func Arithmetic(f Formula) MaxArithmetic {
	var m MaxArithmetic
	scanArith(f, &m)
	return m
}

func scanArith(f Formula, m *MaxArithmetic) {
	var scanTerm func(t Term)
	isConstTerm := func(t Term) bool {
		vars := make(map[string]bool)
		freeVarsTerm(t, vars)
		return len(vars) == 0
	}
	scanTerm = func(t Term) {
		switch x := t.(type) {
		case Add:
			m.UsesAdd = true
			scanTerm(x.L)
			scanTerm(x.R)
		case Sub:
			m.UsesAdd = true
			scanTerm(x.L)
			scanTerm(x.R)
		case Neg:
			m.UsesAdd = true
			scanTerm(x.X)
		case Mul:
			if !isConstTerm(x.L) && !isConstTerm(x.R) {
				m.UsesMul = true
			}
			scanTerm(x.L)
			scanTerm(x.R)
		}
	}
	switch x := f.(type) {
	case Cmp:
		if x.Op != EqNum {
			m.UsesOrder = true
		}
		scanTerm(x.L)
		scanTerm(x.R)
	case Atom:
		for _, a := range x.Args {
			scanTerm(a)
		}
	case Not:
		scanArith(x.F, m)
	case And:
		scanArith(x.L, m)
		scanArith(x.R, m)
	case Or:
		scanArith(x.L, m)
		scanArith(x.R, m)
	case Implies:
		scanArith(x.L, m)
		scanArith(x.R, m)
	case Exists:
		scanArith(x.Body, m)
	case Forall:
		scanArith(x.Body, m)
	}
}
