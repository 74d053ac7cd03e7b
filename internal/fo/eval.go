package fo

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/value"
)

// Numeric abstracts the numerical carrier of evaluation. Instantiating it
// with plain float64 evaluates queries over complete databases; instantiating
// it with univariate polynomials in the ray parameter k (compared by leading
// coefficient) evaluates the *asymptotic* truth of the query along a
// direction, which is exactly lim_k f_{φ,a}(k) of Section 8 — without ever
// materializing the translated formula φ.
type Numeric[N any] interface {
	// FromConst embeds a real constant into the carrier.
	FromConst(float64) N
	// Add returns the sum of two carrier values.
	Add(N, N) N
	// Mul returns the product of two carrier values.
	Mul(N, N) N
	// Cmp compares two carrier values, returning -1, 0 or +1.
	Cmp(N, N) int
}

// Cell is a single evaluated value: a base-sort string or a numerical-sort
// carrier value.
type Cell[N any] struct {
	IsNum bool
	Base  string
	Num   N
}

// BaseCell returns a base-sort cell.
func BaseCell[N any](s string) Cell[N] { return Cell[N]{Base: s} }

// NumCell returns a numerical-sort cell.
func NumCell[N any](x N) Cell[N] { return Cell[N]{IsNum: true, Num: x} }

// Instance is a database instance prepared for evaluation over carrier N:
// relation contents as cells, plus the active domains that quantifiers
// range over.
type Instance[N any] struct {
	dom        Numeric[N]
	rels       map[string][][]Cell[N]
	baseDomain []string
	numDomain  []N
}

// NumDomain returns the active numerical domain.
func (in *Instance[N]) NumDomain() []N { return in.numDomain }

// AddNumDomain extends the active numerical domain.
func (in *Instance[N]) AddNumDomain(xs ...N) {
	for _, x := range xs {
		found := false
		for _, y := range in.numDomain {
			if in.dom.Cmp(x, y) == 0 {
				found = true
				break
			}
		}
		if !found {
			in.numDomain = append(in.numDomain, x)
		}
	}
}

// EvalError reports a sort violation or unbound variable at evaluation
// time. Typechecked queries never produce one.
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "fo: eval: " + e.Msg }

func evalErrf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// Eval evaluates the query body with the query's free variables bound to
// args (which must match q.Free in length and sorts).
func Eval[N any](q *Query, inst *Instance[N], args []Cell[N]) (bool, error) {
	if len(args) != len(q.Free) {
		return false, evalErrf("query %s has %d free variables, got %d arguments",
			q.Name, len(q.Free), len(args))
	}
	env := make(map[string]Cell[N], len(args))
	for i, fv := range q.Free {
		if args[i].IsNum != (fv.Sort == SortNum) {
			return false, evalErrf("argument %d for %s has wrong sort", i+1, fv.Name)
		}
		env[fv.Name] = args[i]
	}
	return evalFormula(q.Body, inst, env)
}

func evalFormula[N any](f Formula, inst *Instance[N], env map[string]Cell[N]) (bool, error) {
	switch x := f.(type) {
	case True:
		return true, nil
	case False:
		return false, nil
	case Atom:
		return evalAtom(x, inst, env)
	case BaseEq:
		l, err := evalTerm(x.L, inst, env)
		if err != nil {
			return false, err
		}
		r, err := evalTerm(x.R, inst, env)
		if err != nil {
			return false, err
		}
		if l.IsNum || r.IsNum {
			return false, evalErrf("base equality over numerical terms")
		}
		return l.Base == r.Base, nil
	case Cmp:
		l, err := evalTerm(x.L, inst, env)
		if err != nil {
			return false, err
		}
		r, err := evalTerm(x.R, inst, env)
		if err != nil {
			return false, err
		}
		if !l.IsNum || !r.IsNum {
			return false, evalErrf("arithmetic comparison over base terms")
		}
		c := inst.dom.Cmp(l.Num, r.Num)
		switch x.Op {
		case Lt:
			return c < 0, nil
		case Le:
			return c <= 0, nil
		case EqNum:
			return c == 0, nil
		case NeNum:
			return c != 0, nil
		case Ge:
			return c >= 0, nil
		case Gt:
			return c > 0, nil
		}
		return false, evalErrf("unknown comparison operator")
	case Not:
		b, err := evalFormula(x.F, inst, env)
		return !b, err
	case And:
		l, err := evalFormula(x.L, inst, env)
		if err != nil || !l {
			return false, err
		}
		return evalFormula(x.R, inst, env)
	case Or:
		l, err := evalFormula(x.L, inst, env)
		if err != nil || l {
			return l, err
		}
		return evalFormula(x.R, inst, env)
	case Implies:
		l, err := evalFormula(x.L, inst, env)
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return evalFormula(x.R, inst, env)
	case Exists:
		return evalQuant(x.Var, x.Sort, x.Body, inst, env, true)
	case Forall:
		return evalQuant(x.Var, x.Sort, x.Body, inst, env, false)
	default:
		return false, evalErrf("unknown formula node %T", f)
	}
}

// evalQuant implements active-domain quantification: base variables range
// over the instance's base domain, numerical variables over its numerical
// domain.
func evalQuant[N any](name string, srt Sort, body Formula, inst *Instance[N], env map[string]Cell[N], existential bool) (bool, error) {
	old, had := env[name]
	defer func() {
		if had {
			env[name] = old
		} else {
			delete(env, name)
		}
	}()
	if srt == SortBase {
		for _, s := range inst.baseDomain {
			env[name] = BaseCell[N](s)
			b, err := evalFormula(body, inst, env)
			if err != nil {
				return false, err
			}
			if b == existential {
				return existential, nil
			}
		}
	} else {
		for _, x := range inst.numDomain {
			env[name] = NumCell(x)
			b, err := evalFormula(body, inst, env)
			if err != nil {
				return false, err
			}
			if b == existential {
				return existential, nil
			}
		}
	}
	return !existential, nil
}

func evalAtom[N any](a Atom, inst *Instance[N], env map[string]Cell[N]) (bool, error) {
	args := make([]Cell[N], len(a.Args))
	for i, t := range a.Args {
		c, err := evalTerm(t, inst, env)
		if err != nil {
			return false, err
		}
		args[i] = c
	}
	tuples, ok := inst.rels[a.Rel]
	if !ok {
		return false, evalErrf("unknown relation %s", a.Rel)
	}
next:
	for _, tup := range tuples {
		if len(tup) != len(args) {
			return false, evalErrf("arity mismatch for %s", a.Rel)
		}
		for i := range tup {
			if tup[i].IsNum != args[i].IsNum {
				return false, evalErrf("sort mismatch in column %d of %s", i+1, a.Rel)
			}
			if tup[i].IsNum {
				if inst.dom.Cmp(tup[i].Num, args[i].Num) != 0 {
					continue next
				}
			} else if tup[i].Base != args[i].Base {
				continue next
			}
		}
		return true, nil
	}
	return false, nil
}

func evalTerm[N any](t Term, inst *Instance[N], env map[string]Cell[N]) (Cell[N], error) {
	switch x := t.(type) {
	case Var:
		c, ok := env[x.Name]
		if !ok {
			return Cell[N]{}, evalErrf("unbound variable %s", x.Name)
		}
		return c, nil
	case BaseConst:
		return BaseCell[N](x.Value), nil
	case NumConst:
		return NumCell(inst.dom.FromConst(x.Value)), nil
	case Add:
		return evalNumBinop(x.L, x.R, inst, env, inst.dom.Add)
	case Sub:
		return evalNumBinop(x.L, x.R, inst, env, func(a, b N) N {
			return inst.dom.Add(a, inst.dom.Mul(inst.dom.FromConst(-1), b))
		})
	case Mul:
		return evalNumBinop(x.L, x.R, inst, env, inst.dom.Mul)
	case Neg:
		c, err := evalTerm(x.X, inst, env)
		if err != nil {
			return Cell[N]{}, err
		}
		if !c.IsNum {
			return Cell[N]{}, evalErrf("unary - over base term")
		}
		return NumCell(inst.dom.Mul(inst.dom.FromConst(-1), c.Num)), nil
	default:
		return Cell[N]{}, evalErrf("unknown term node %T", t)
	}
}

func evalNumBinop[N any](l, r Term, inst *Instance[N], env map[string]Cell[N], op func(N, N) N) (Cell[N], error) {
	lc, err := evalTerm(l, inst, env)
	if err != nil {
		return Cell[N]{}, err
	}
	rc, err := evalTerm(r, inst, env)
	if err != nil {
		return Cell[N]{}, err
	}
	if !lc.IsNum || !rc.IsNum {
		return Cell[N]{}, evalErrf("arithmetic over base terms")
	}
	return NumCell(op(lc.Num, rc.Num)), nil
}

// FromComplete prepares a complete database (no nulls anywhere) for
// evaluation over float64. It returns an error if the database contains a
// null.
func FromComplete(d *db.Database) (*Instance[float64], error) {
	inst := &Instance[float64]{dom: Real{}, rels: make(map[string][][]Cell[float64])}
	for _, rel := range d.Schema().Relations() {
		rows := make([][]Cell[float64], 0, d.Len(rel.Name))
		for t := range d.All(rel.Name) {
			row := make([]Cell[float64], len(t))
			for i, v := range t {
				switch v.Kind() {
				case value.BaseConst:
					row[i] = BaseCell[float64](v.Str())
				case value.NumConst:
					row[i] = NumCell(v.Float())
				default:
					return nil, evalErrf("FromComplete on database with null %v", v)
				}
			}
			rows = append(rows, row)
		}
		inst.rels[rel.Name] = rows
	}
	inst.baseDomain = d.BaseConstants()
	for _, x := range d.NumConstants() {
		inst.numDomain = append(inst.numDomain, x)
	}
	return inst, nil
}

// CollectConstants returns all base and numerical constants mentioned in
// the query, for extending active domains.
func CollectConstants(q *Query) (bases []string, nums []float64) {
	var scanTerm func(t Term)
	scanTerm = func(t Term) {
		switch x := t.(type) {
		case BaseConst:
			bases = append(bases, x.Value)
		case NumConst:
			nums = append(nums, x.Value)
		case Add:
			scanTerm(x.L)
			scanTerm(x.R)
		case Sub:
			scanTerm(x.L)
			scanTerm(x.R)
		case Mul:
			scanTerm(x.L)
			scanTerm(x.R)
		case Neg:
			scanTerm(x.X)
		}
	}
	var scan func(f Formula)
	scan = func(f Formula) {
		switch x := f.(type) {
		case Atom:
			for _, a := range x.Args {
				scanTerm(a)
			}
		case BaseEq:
			scanTerm(x.L)
			scanTerm(x.R)
		case Cmp:
			scanTerm(x.L)
			scanTerm(x.R)
		case Not:
			scan(x.F)
		case And:
			scan(x.L)
			scan(x.R)
		case Or:
			scan(x.L)
			scan(x.R)
		case Implies:
			scan(x.L)
			scan(x.R)
		case Exists:
			scan(x.Body)
		case Forall:
			scan(x.Body)
		}
	}
	scan(q.Body)
	return bases, nums
}
