// Package exec is the vectorized executor of the SQL pipeline: it runs a
// logical plan (package plan) over the columnar storage engine (package
// db) with an iterator model and emits (tuple, constraint-disjunct) pairs
// — one per surviving join combination — incrementally, instead of
// materializing the naive join.
//
// All predicate evaluation happens over the flat columnar arrays without
// boxing values:
//
//   - base-typed (in)equalities compare packed dictionary/null codes —
//     one int32 comparison per condition (marked base nulls join only
//     with themselves, per Prop 5.2);
//   - hash joins probe the database's equality indexes by code;
//   - numeric conditions run as small postorder programs: when every
//     referenced cell is a constant they fold with scalar arithmetic that
//     mirrors the polynomial algebra exactly, otherwise they evaluate in
//     a reusable poly.Scratch arena. A constraint atom is materialized
//     into an immutable polynomial only when a consumer actually keeps
//     the derivation, which is what makes LIMIT'ed queries run with
//     near-zero allocation.
//
// Each derivation's conjunction is laid out in the plan's canonical
// order, so the constraint formulas are byte-identical to those of the
// pre-planner evaluator regardless of the join order executed; when the
// planner reordered joins, Aggregate restores the original derivation
// order before folding (it buffers row ordinals and replays them).
//
// The executor is snapshot-ready: a cursor resolves its column views,
// equality indexes and row counts once at construction, so running it
// over db.Snapshot() — an immutable view — is safe concurrently with a
// writer committing new versions. Running over the live writer database
// is only safe while no insert is in flight (the single-goroutine
// Session regime).
package exec

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/plan"
	"repro/internal/poly"
	"repro/internal/realfmla"
	"repro/internal/sqlast"
	"repro/internal/value"
)

// Options configures execution.
type Options struct {
	// Interrupt, when set, is polled every few thousand derivations
	// during aggregation (on a reordered plan both while enumerating and
	// while replaying in derivation order); a non-nil return aborts the
	// run with that error. Servers wire a request context's Err here so
	// an abandoned query stops enumerating (the join space can be
	// enormous) instead of running to completion for nobody.
	Interrupt func() error
	// TopK, when positive, is the k of a LIMIT-k query that the adaptive
	// race will rank over the full candidate field (aggregated without a
	// LIMIT). A candidate whose constraint saturates to true has measure
	// exactly 1, and the race breaks ties toward the lower index, so once
	// k candidates at indices ≤ b have saturated no candidate after b can
	// place. Aggregate then materializes nothing more for those: their
	// derivations are still counted and their keys still make the
	// candidate count, but their result entries are zero Candidates (nil
	// Tuple and Phi).
	TopK int
}

// Deriv is one derivation, as Cursor.Next returns it: a surviving join
// combination. Tuple is the projected answer tuple and Conj the
// constraint atoms it is conditioned on (in the plan's canonical order;
// empty means unconditional).
type Deriv struct {
	Tuple value.Tuple
	Conj  []realfmla.Formula
}

// numeric-program opcodes, the postorder lowering of plan.NumExpr.
const (
	opConst uint8 = iota
	opCell
	opNeg
	opAdd
	opSub
	opMul
)

// instr is one instruction of a condition's numeric program. opCell
// instructions carry the resolved columnar view of the referenced cell's
// column and the pipeline step binding its row.
type instr struct {
	op   uint8
	c    float64 // opConst
	step int     // opCell
	col  db.ColView
}

// stepState is the runtime state of one pipeline step.
type stepState struct {
	relation string
	n        int

	access     plan.AccessKind
	outer      db.ColView // IndexEq: probe column of the outer step
	outerStep  int
	localCol   int
	litCode    int32 // IndexConst: packed code of the literal
	litOK      bool
	accessCond int
	conds      []int

	ix    *db.EqIndex
	cand  []int32
	ncand int
	pos   int
	probe bool
}

// condState is the runtime state of one planned condition. For numeric
// conditions it holds the postorder program, the scratch arena the
// condition evaluates in, and the pending constraint atom of the current
// binding (materialized lazily, at most once per binding).
type condState struct {
	kind plan.CondKind

	// CondBaseEq / CondBaseEqConst: packed-code columns of both sides.
	l, r         db.ColView
	lStep, rStep int
	litCode      int32
	litOK        bool

	// CondNumCmp.
	rel     realfmla.Rel
	prog    []instr
	scratch poly.Scratch
	hasAtom bool
	sp      poly.SPoly
	fm      realfmla.Formula // memoized materialized atom of the current binding
}

// projCell is one projected output cell.
type projCell struct {
	step int
	col  db.ColView
}

// Cursor is a pull-based iterator over the derivations of a plan, in
// executor order (the plan's join order). That is the derivation order
// only on Identity plans; Aggregate folds in derivation order on both
// plan shapes.
type Cursor struct {
	p    *plan.Plan
	d    *db.Database
	opts Options
	err  error

	steps  []stepState
	conds  []condState
	proj   []projCell
	ords   []int32
	fstack []float64
	pstack []poly.SPoly

	depth   int
	started bool
	done    bool
}

// relOf maps sqlast comparison operators to sign relations, matching the
// pre-planner evaluator's table.
var relOf = [...]realfmla.Rel{realfmla.LT, realfmla.LE, realfmla.EQ, realfmla.NE, realfmla.GE, realfmla.GT}

// NewCursor opens a cursor over the plan.
func NewCursor(p *plan.Plan, d *db.Database, opts Options) *Cursor {
	ns := len(p.Steps)
	c := &Cursor{
		p: p, d: d, opts: opts,
		steps: make([]stepState, ns),
		conds: make([]condState, len(p.Conds)),
		ords:  make([]int32, ns),
	}
	for s := range p.Steps {
		ps := &p.Steps[s]
		st := &c.steps[s]
		st.relation = ps.Relation
		st.n = d.Len(ps.Relation)
		st.access = ps.Access
		st.accessCond = ps.AccessCond
		st.conds = ps.Conds
		st.localCol = ps.LocalCol
		switch ps.Access {
		case plan.IndexEq:
			st.outerStep = ps.Outer.Step
			st.outer = d.Col(p.Steps[ps.Outer.Step].Relation, ps.Outer.Col)
		case plan.IndexConst:
			st.litCode, st.litOK = d.LookupBaseCode(ps.Lit.Str())
		}
	}
	for ci := range p.Conds {
		pc := &p.Conds[ci]
		cs := &c.conds[ci]
		cs.kind = pc.Kind
		switch pc.Kind {
		case plan.CondBaseEq:
			cs.lStep, cs.rStep = pc.L.Step, pc.R.Step
			cs.l = d.Col(p.Steps[pc.L.Step].Relation, pc.L.Col)
			cs.r = d.Col(p.Steps[pc.R.Step].Relation, pc.R.Col)
		case plan.CondBaseEqConst:
			cs.lStep = pc.L.Step
			cs.l = d.Col(p.Steps[pc.L.Step].Relation, pc.L.Col)
			cs.litCode, cs.litOK = d.LookupBaseCode(pc.Lit.Str())
		case plan.CondNumCmp:
			cs.rel = relOf[pc.Op]
			cs.prog = c.lowerExpr(cs.prog, pc.LExp)
			cs.prog = c.lowerExpr(cs.prog, pc.RExp)
			cs.prog = append(cs.prog, instr{op: opSub})
		}
	}
	c.proj = make([]projCell, len(p.Project))
	for i, cell := range p.Project {
		c.proj[i] = projCell{step: cell.Step, col: d.Col(p.Steps[cell.Step].Relation, cell.Col)}
	}
	return c
}

// lowerExpr appends the postorder program of e — the evaluation order of
// the recursive polynomial construction it replaces.
func (c *Cursor) lowerExpr(prog []instr, e *plan.NumExpr) []instr {
	switch e.Kind {
	case sqlast.ExprConst:
		return append(prog, instr{op: opConst, c: e.Const})
	case sqlast.ExprCol:
		cv := c.d.Col(c.p.Steps[e.Cell.Step].Relation, e.Cell.Col)
		if len(cv.Kinds) > 0 && cv.Nums == nil {
			// A base column in arithmetic cannot come out of plan.Build
			// (the resolver rejects it); guard hand-built plans.
			c.err = fmt.Errorf("exec: base column in arithmetic at step %d", e.Cell.Step)
		}
		return append(prog, instr{op: opCell, step: e.Cell.Step, col: cv})
	case sqlast.ExprNeg:
		prog = c.lowerExpr(prog, e.L)
		return append(prog, instr{op: opNeg})
	case sqlast.ExprAdd, sqlast.ExprSub, sqlast.ExprMul:
		prog = c.lowerExpr(prog, e.L)
		prog = c.lowerExpr(prog, e.R)
		op := opAdd
		if e.Kind == sqlast.ExprSub {
			op = opSub
		} else if e.Kind == sqlast.ExprMul {
			op = opMul
		}
		return append(prog, instr{op: op})
	}
	c.err = fmt.Errorf("exec: unknown expression kind")
	return prog
}

// advance moves the cursor to the next surviving full binding, reporting
// false at exhaustion.
func (c *Cursor) advance() bool {
	if c.done || c.err != nil {
		return false
	}
	s := c.depth
	if !c.started {
		c.started = true
		s = 0
		c.enter(0)
	}
	last := len(c.steps) - 1
	for s >= 0 {
		st := &c.steps[s]
		if st.pos >= st.ncand {
			s--
			continue
		}
		i := st.pos
		st.pos++
		ord := int32(i)
		if st.cand != nil {
			ord = st.cand[i]
		}
		c.ords[s] = ord
		if !c.applyConds(s) {
			continue
		}
		if s == last {
			c.depth = s
			return true
		}
		s++
		c.enter(s)
	}
	c.done = true
	return false
}

// enter prepares step s's candidate rows for the current outer binding:
// an index probe when the plan chose one, a full scan otherwise.
func (c *Cursor) enter(s int) {
	st := &c.steps[s]
	st.pos = 0
	st.probe = false
	if st.access != plan.FullScan {
		ok := true
		var code int32
		if st.access == plan.IndexEq {
			code = st.outer.Codes[c.ords[st.outerStep]]
		} else {
			code, ok = st.litCode, st.litOK
		}
		if ok {
			st.cand = c.index(s).Base(code)
		} else {
			st.cand = nil
		}
		st.ncand = len(st.cand)
		st.probe = true
		return
	}
	st.cand = nil
	st.ncand = st.n
}

// index returns the database's persistent equality index serving step
// s's access path, caching the handle on the cursor.
func (c *Cursor) index(s int) *db.EqIndex {
	st := &c.steps[s]
	if st.ix == nil {
		st.ix = c.d.Index(st.relation, st.localCol)
	}
	return st.ix
}

// applyConds evaluates every condition placed at step s for the current
// binding: base conditions decide with one packed-code comparison,
// numeric conditions either decide (constant program) or record a pending
// constraint atom in the condition's scratch arena. The access condition
// is skipped when the index probe already guarantees it.
func (c *Cursor) applyConds(s int) bool {
	st := &c.steps[s]
	for _, ci := range st.conds {
		if st.probe && ci == st.accessCond {
			continue
		}
		cs := &c.conds[ci]
		switch cs.kind {
		case plan.CondBaseEq:
			if cs.l.Codes[c.ords[cs.lStep]] != cs.r.Codes[c.ords[cs.rStep]] {
				return false
			}
		case plan.CondBaseEqConst:
			if !cs.litOK || cs.l.Codes[c.ords[cs.lStep]] != cs.litCode {
				return false
			}
		case plan.CondNumCmp:
			if !c.applyNumCond(cs) {
				return false
			}
		}
	}
	return true
}

// applyNumCond evaluates a numeric condition for the current binding.
func (c *Cursor) applyNumCond(cs *condState) bool {
	cs.hasAtom = false
	cs.fm = nil
	allConst := true
	for i := range cs.prog {
		in := &cs.prog[i]
		if in.op == opCell && in.col.Kinds[c.ords[in.step]] != value.NumConst {
			allConst = false
			break
		}
	}
	if allConst {
		return cs.rel.Holds(c.evalScalar(cs))
	}
	cs.scratch.Reset()
	sp := c.evalScratch(cs)
	if v, ok := cs.scratch.IsConst(sp); ok {
		return cs.rel.Holds(v)
	}
	cs.hasAtom = true
	cs.sp = sp
	return true
}

// evalScalar runs the program over constants only, with the scalar mirror
// of the polynomial algebra (poly.Fold*), so the decision agrees exactly
// with the polynomial path.
func (c *Cursor) evalScalar(cs *condState) float64 {
	stk := c.fstack[:0]
	for i := range cs.prog {
		in := &cs.prog[i]
		switch in.op {
		case opConst:
			stk = append(stk, poly.FoldConst(in.c))
		case opCell:
			stk = append(stk, poly.FoldConst(in.col.Nums[c.ords[in.step]]))
		case opNeg:
			stk[len(stk)-1] = poly.FoldNeg(stk[len(stk)-1])
		case opAdd:
			stk[len(stk)-2] = poly.FoldAdd(stk[len(stk)-2], stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opSub:
			stk[len(stk)-2] = poly.FoldSub(stk[len(stk)-2], stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opMul:
			stk[len(stk)-2] = poly.FoldMul(stk[len(stk)-2], stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		}
	}
	c.fstack = stk
	return stk[0]
}

// evalScratch runs the program in the condition's scratch arena,
// mirroring the recursive polynomial construction operation for
// operation.
func (c *Cursor) evalScratch(cs *condState) poly.SPoly {
	s := &cs.scratch
	stk := c.pstack[:0]
	for i := range cs.prog {
		in := &cs.prog[i]
		switch in.op {
		case opConst:
			stk = append(stk, s.Const(in.c))
		case opCell:
			ord := c.ords[in.step]
			if in.col.Kinds[ord] == value.NumConst {
				stk = append(stk, s.Const(in.col.Nums[ord]))
			} else {
				stk = append(stk, s.Var(c.p.Index[int(in.col.Codes[ord])]))
			}
		case opNeg:
			stk[len(stk)-1] = s.Neg(stk[len(stk)-1])
		case opAdd:
			stk[len(stk)-2] = s.Add(stk[len(stk)-2], stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opSub:
			stk[len(stk)-2] = s.Sub(stk[len(stk)-2], stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opMul:
			stk[len(stk)-2] = s.Mul(stk[len(stk)-2], stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		}
	}
	c.pstack = stk
	return stk[0]
}

// atom materializes (once per binding) the pending constraint atom of a
// numeric condition as an immutable formula.
func (c *Cursor) atom(ci int) realfmla.Formula {
	cs := &c.conds[ci]
	if cs.fm == nil {
		cs.fm = realfmla.FAtom{A: realfmla.Atom{P: cs.scratch.Materialize(cs.sp, c.p.K), Rel: cs.rel}}
	}
	return cs.fm
}

// pendingAtoms counts the constraint atoms of the current binding.
func (c *Cursor) pendingAtoms() int {
	n := 0
	for ci := range c.conds {
		if c.conds[ci].hasAtom {
			n++
		}
	}
	return n
}

// conj materializes the current binding's constraint conjunction exactly
// as realfmla.And over the pending atoms would: nil for none, the single
// atom, or an FAnd in canonical condition order.
func (c *Cursor) conj() realfmla.Formula {
	switch c.pendingAtoms() {
	case 0:
		return nil
	case 1:
		for ci := range c.conds {
			if c.conds[ci].hasAtom {
				return c.atom(ci)
			}
		}
	}
	fs := make([]realfmla.Formula, 0, c.pendingAtoms())
	for ci := range c.conds {
		if c.conds[ci].hasAtom {
			fs = append(fs, c.atom(ci))
		}
	}
	return realfmla.FAnd{Fs: fs}
}

// cellValue materializes the boundary value of a columnar cell.
func (c *Cursor) cellValue(cv db.ColView, ord int32) value.Value {
	switch cv.Kinds[ord] {
	case value.BaseConst:
		return value.Base(c.d.DictString(cv.Codes[ord] >> 1))
	case value.BaseNull:
		return value.NullBase(int(cv.Codes[ord] >> 1))
	case value.NumConst:
		return value.Num(cv.Nums[ord])
	default:
		return value.NullNum(int(cv.Codes[ord]))
	}
}

// tuple materializes the projected tuple of the current binding.
func (c *Cursor) tuple() value.Tuple {
	tup := make(value.Tuple, len(c.proj))
	for i, pc := range c.proj {
		tup[i] = c.cellValue(pc.col, c.ords[pc.step])
	}
	return tup
}

// emit snapshots the current full binding as a derivation.
func (c *Cursor) emit() *Deriv {
	var conj []realfmla.Formula
	if n := c.pendingAtoms(); n > 0 {
		conj = make([]realfmla.Formula, 0, n)
		for ci := range c.conds {
			if c.conds[ci].hasAtom {
				conj = append(conj, c.atom(ci))
			}
		}
	}
	return &Deriv{Tuple: c.tuple(), Conj: conj}
}

// Next returns the next derivation, or nil when the cursor is exhausted.
// The returned Deriv is freshly allocated and owned by the caller.
func (c *Cursor) Next() (*Deriv, error) {
	if !c.advance() {
		return nil, c.err
	}
	return c.emit(), nil
}
