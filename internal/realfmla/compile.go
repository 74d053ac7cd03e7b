package realfmla

import (
	"fmt"

	"repro/internal/poly"
)

// Compiled is a formula preprocessed for repeated evaluation: syntactically
// identical atoms are deduplicated and evaluated once per point or
// direction, and the Boolean structure is evaluated over the cached truth
// values. Translated formulas share massive numbers of repeated atoms
// (quantifier expansion reuses the same comparisons), so this is the
// difference between the AFPRAS being practical or not.
//
// Compile additionally classifies every atom into an evaluation kernel:
//
//   - constant atoms carry their precomputed constant;
//   - linear atoms (the overwhelming majority of translated formulas) have
//     their degree-1 coefficients packed into one flat row-major matrix, so
//     asymptotic sign along a direction is a dot product with a tolerance
//     fallback to the constant term — no polynomial substitution at all;
//   - the remaining (nonlinear) atoms have their terms packed into a flat
//     homogeneous-degree cascade evaluated leading degree first, which
//     almost always stops after the top homogeneous component.
//
// The compiled structure is immutable after Compile and may be shared by
// any number of goroutines, each evaluating through its own Evaluator.
// The AsymEval/Eval/EvalWith methods on Compiled itself use one internal
// Evaluator and are therefore NOT safe for concurrent use.
type Compiled struct {
	atoms []Atom
	root  cnode
	n     int // ambient variable count (0 if the formula has no atoms)

	// meta is the per-atom kernel metadata, indexed like atoms.
	meta []atomMeta
	// linCoef packs the degree-1 coefficient rows of all linear atoms into
	// one flat row-major matrix (numLinear × n).
	linCoef []float64

	// Nonlinear atoms are compiled into a flat homogeneous-degree cascade:
	// terms grouped by total degree, highest first, so the asymptotic sign
	// evaluates the leading homogeneous component and falls through to
	// lower degrees only when it vanishes (within tolerance). Atom i owns
	// degree levels [meta[i].lvlStart, meta[i].lvlEnd); level L owns terms
	// [termOff[L], termOff[L+1]); term t has coefficient termCoef[t] and
	// variable factors [facOff[t], facOff[t+1]) into facVar/facPow.
	termOff        []int32
	termCoef       []float64
	facOff         []int32
	facVar, facPow []int32

	// maxDeg is the maximum total degree over akGeneral atoms; Evaluator
	// scratch buffers (used by mixed-mode evaluation) are sized to it.
	maxDeg int

	// def backs the legacy evaluation methods on Compiled.
	def *Evaluator
}

type atomKind uint8

const (
	akConst atomKind = iota
	akLinear
	akGeneral
)

// atomMeta packs the hot per-atom kernel metadata (classification,
// relation, kernel offsets, constant term) into 24 bytes, so deciding an
// atom's asymptotic truth starts from a single array load.
type atomMeta struct {
	kind atomKind
	rel  Rel
	// row is the row index into linCoef for akLinear atoms, -1 otherwise.
	row int32
	// lvlStart/lvlEnd delimit the cascade levels of akGeneral atoms.
	lvlStart, lvlEnd int32
	// cval is the constant term: the whole polynomial for akConst atoms,
	// the degree-0 coefficient for akLinear atoms, 0 for akGeneral.
	cval float64
}

type cnodeKind uint8

const (
	cTrue cnodeKind = iota
	cFalse
	cAtom
	cNot
	cAnd
	cOr
)

type cnode struct {
	kind cnodeKind
	atom int
	kids []cnode
}

// Compile preprocesses a formula.
func Compile(f Formula) *Compiled {
	c := &Compiled{}
	index := make(map[uint64]int)
	c.root = c.build(f, index)
	if len(c.atoms) > 0 {
		c.n = c.atoms[0].P.N
	}
	c.meta = make([]atomMeta, len(c.atoms))
	for i, a := range c.atoms {
		m := &c.meta[i]
		m.rel = a.Rel
		m.row = -1
		switch deg := a.P.Degree(); {
		case deg <= 0:
			m.kind = akConst
			m.cval, _ = a.P.IsConst()
		case deg == 1 && 2*len(a.P.Terms) >= c.n:
			// Dense-enough linear atom: flat coefficient row, sign by dot
			// product. Sparse rows (and everything nonlinear) go through
			// the term cascade instead, which skips the zero columns.
			m.kind = akLinear
			coef, c0, _ := a.P.LinearForm()
			m.cval = c0
			m.row = int32(len(c.linCoef) / max(c.n, 1))
			c.linCoef = append(c.linCoef, coef...)
		default:
			m.kind = akGeneral
			if deg > c.maxDeg {
				c.maxDeg = deg
			}
			c.packCascade(m, a.P, deg)
		}
	}
	c.termOff = append(c.termOff, int32(len(c.termCoef)))
	c.facOff = append(c.facOff, int32(len(c.facVar)))
	c.def = c.NewEvaluator()
	return c
}

// packCascade appends atom i's terms to the flat cascade arrays, grouped
// by total degree in descending order (empty degrees are skipped). Levels
// and terms are packed contiguously, so a level's term range ends where
// the next level's begins; Compile appends the final sentinel offsets.
func (c *Compiled) packCascade(m *atomMeta, p poly.Poly, deg int) {
	m.lvlStart = int32(len(c.termOff))
	for d := deg; d >= 0; d-- {
		any := false
		for _, t := range p.Terms {
			td := 0
			for _, v := range t.Vars {
				td += v.Pow
			}
			if td != d {
				continue
			}
			if !any {
				any = true
				c.termOff = append(c.termOff, int32(len(c.termCoef)))
			}
			c.termCoef = append(c.termCoef, t.Coef)
			c.facOff = append(c.facOff, int32(len(c.facVar)))
			for _, v := range t.Vars {
				c.facVar = append(c.facVar, int32(v.Var))
				c.facPow = append(c.facPow, int32(v.Pow))
			}
		}
	}
	m.lvlEnd = int32(len(c.termOff))
}

// intern returns a's index in c.atoms, appending it on first occurrence.
// index maps an atom's word hash to the atom stored under it. A hit counts
// only if the relation and the polynomial are Equal; on a collision the
// probe moves to the next hash value, so distinct atoms never merge.
func (c *Compiled) intern(a Atom, index map[uint64]int) int {
	h := newFPHash()
	h.atom(a)
	for key := h.a; ; key++ {
		i, ok := index[key]
		if !ok {
			index[key] = len(c.atoms)
			c.atoms = append(c.atoms, a)
			return len(c.atoms) - 1
		}
		if c.atoms[i].Rel == a.Rel && c.atoms[i].P.Equal(a.P) {
			return i
		}
	}
}

func (c *Compiled) build(f Formula, index map[uint64]int) cnode {
	switch g := f.(type) {
	case FTrue:
		return cnode{kind: cTrue}
	case FFalse:
		return cnode{kind: cFalse}
	case FAtom:
		return cnode{kind: cAtom, atom: c.intern(g.A, index)}
	case FNot:
		return cnode{kind: cNot, kids: []cnode{c.build(g.F, index)}}
	case FAnd:
		kids := make([]cnode, len(g.Fs))
		for i, h := range g.Fs {
			kids[i] = c.build(h, index)
		}
		return cnode{kind: cAnd, kids: kids}
	case FOr:
		kids := make([]cnode, len(g.Fs))
		for i, h := range g.Fs {
			kids[i] = c.build(h, index)
		}
		return cnode{kind: cOr, kids: kids}
	}
	panic(fmt.Sprintf("realfmla: unknown node %T", f))
}

// Atoms returns the deduplicated atoms.
func (c *Compiled) Atoms() []Atom { return c.atoms }

// AsymEval reports the asymptotic truth of the formula along dir,
// evaluating each distinct atom lazily at most once. Not safe for
// concurrent use; concurrent callers should evaluate through their own
// NewEvaluator.
func (c *Compiled) AsymEval(dir []float64, tol float64) bool {
	return c.def.AsymEval(dir, tol)
}

// Eval reports the truth of the formula at the point x, evaluating each
// distinct atom lazily at most once. Not safe for concurrent use.
func (c *Compiled) Eval(x []float64) bool {
	return c.def.Eval(x)
}

// EvalWith evaluates the formula with a caller-supplied atom decision
// procedure (still cached per distinct atom): used by the mixed
// finite/asymptotic evaluation of range-constrained measures. Not safe
// for concurrent use.
func (c *Compiled) EvalWith(decide func(Atom) bool) bool {
	return c.def.EvalWith(decide)
}

// NewEvaluator returns a fresh evaluation context over the compiled
// formula. Evaluators hold all mutable per-evaluation scratch (truth
// cache, generation counters, substitution buffer), so any number of them
// can evaluate the same Compiled concurrently, each from its own
// goroutine. Evaluations themselves are allocation-free.
func (c *Compiled) NewEvaluator() *Evaluator {
	return &Evaluator{
		c:   c,
		tg:  make([]uint64, len(c.atoms)),
		uni: make(poly.Uni, c.maxDeg+1),
	}
}

// evalMode selects how an Evaluator decides atoms during one evaluation.
type evalMode uint8

const (
	modeAsym evalMode = iota
	modePoint
	modeMixed
	modeCustom
)

// Evaluator is a per-goroutine evaluation context for a Compiled formula.
// Atom truths are cached lazily per evaluation; instead of clearing an
// O(atoms) done-slice before every evaluation, an epoch counter marks
// which cached truths belong to the current evaluation: tg[i] holds
// epoch<<1 | truth, so the freshness check and the cached value are one
// load (a 63-bit epoch never wraps in practice).
type Evaluator struct {
	c   *Compiled
	tg  []uint64
	cur uint64
	uni poly.Uni // scratch for mixed-mode substitution

	// Per-evaluation parameters (set by the public entry points; kept in
	// fields so the recursive walk needs no closures and stays
	// allocation-free).
	mode   evalMode
	dir    []float64
	x      []float64
	ray    []bool
	tol    float64
	decide func(Atom) bool
}

// begin opens a new evaluation epoch, invalidating all cached atom truths.
func (ev *Evaluator) begin() { ev.cur++ }

// AsymEval reports the asymptotic truth of the formula along dir: whether
// the formula holds at k·dir for all sufficiently large k (Lemma 8.4).
func (ev *Evaluator) AsymEval(dir []float64, tol float64) bool {
	ev.begin()
	ev.mode, ev.dir, ev.tol = modeAsym, dir, tol
	return ev.node(&ev.c.root)
}

// Eval reports the truth of the formula at the point x.
func (ev *Evaluator) Eval(x []float64) bool {
	ev.begin()
	ev.mode, ev.x = modePoint, x
	return ev.node(&ev.c.root)
}

// MixedAsymEval reports whether the formula eventually holds when
// variables with ray[i] true go to infinity along vals[i] while the others
// stay fixed at vals[i] — the evaluation mode of range-constrained
// measures (Section 10 of the paper).
func (ev *Evaluator) MixedAsymEval(vals []float64, ray []bool, tol float64) bool {
	ev.begin()
	ev.mode, ev.x, ev.ray, ev.tol = modeMixed, vals, ray, tol
	return ev.node(&ev.c.root)
}

// EvalWith evaluates the formula with a caller-supplied atom decision
// procedure (still cached per distinct atom).
func (ev *Evaluator) EvalWith(decide func(Atom) bool) bool {
	ev.begin()
	ev.mode, ev.decide = modeCustom, decide
	return ev.node(&ev.c.root)
}

func (ev *Evaluator) node(n *cnode) bool {
	switch n.kind {
	case cTrue:
		return true
	case cFalse:
		return false
	case cAtom:
		return ev.atom(n.atom)
	case cNot:
		return !ev.node(&n.kids[0])
	case cAnd:
		// Atom children (the dominant shape of translated formulas) are
		// decided inline, skipping a recursion level.
		for i := range n.kids {
			k := &n.kids[i]
			if k.kind == cAtom {
				if !ev.atom(k.atom) {
					return false
				}
			} else if !ev.node(k) {
				return false
			}
		}
		return true
	case cOr:
		for i := range n.kids {
			k := &n.kids[i]
			if k.kind == cAtom {
				if ev.atom(k.atom) {
					return true
				}
			} else if ev.node(k) {
				return true
			}
		}
		return false
	}
	panic("realfmla: bad compiled node")
}

// atom returns the cached truth of atom i, computing it on first use in
// the current evaluation epoch.
func (ev *Evaluator) atom(i int) bool {
	if tg := ev.tg[i]; tg>>1 == ev.cur {
		return tg&1 == 1
	}
	c := ev.c
	var t bool
	switch ev.mode {
	case modeAsym:
		t = c.meta[i].rel.holds(ev.asymSign(&c.meta[i]))
	case modePoint:
		t = c.atoms[i].Eval(ev.x)
	case modeMixed:
		ev.uni = c.atoms[i].P.SubstituteMixedInto(ev.uni, ev.x, ev.ray)
		t = c.meta[i].rel.holds(ev.uni.AsymptoticSign(ev.tol))
	default:
		t = ev.decide(c.atoms[i])
	}
	tg := ev.cur << 1
	if t {
		tg |= 1
	}
	ev.tg[i] = tg
	return t
}

// asymSign computes the asymptotic sign of an atom's polynomial along
// ev.dir through the compiled kernel: leading homogeneous degree first,
// tolerance fallback to the lower degrees.
func (ev *Evaluator) asymSign(m *atomMeta) int {
	c := ev.c
	switch m.kind {
	case akConst:
		return signTol(m.cval, ev.tol)
	case akLinear:
		off := int(m.row) * c.n
		row := c.linCoef[off : off+c.n]
		dir := ev.dir[:len(row)]
		d := 0.0
		for j, v := range row {
			d += v * dir[j]
		}
		if s := signTol(d, ev.tol); s != 0 {
			return s
		}
		return signTol(m.cval, ev.tol)
	default:
		// Walk the precompiled homogeneous-degree cascade: the sign is
		// decided by the highest degree whose coefficient survives the
		// tolerance, so lower levels are usually never touched.
		dir := ev.dir
		for L := m.lvlStart; L < m.lvlEnd; L++ {
			s := 0.0
			for t := c.termOff[L]; t < c.termOff[L+1]; t++ {
				mul := c.termCoef[t]
				for f := c.facOff[t]; f < c.facOff[t+1]; f++ {
					v := dir[c.facVar[f]]
					mul *= v
					for p := c.facPow[f]; p > 1; p-- {
						mul *= v
					}
				}
				s += mul
			}
			if sg := signTol(s, ev.tol); sg != 0 {
				return sg
			}
		}
		return 0
	}
}

// signTol is the tolerance-guarded sign used by asymptotic evaluation:
// magnitudes at most tol count as zero (matching Uni.AsymptoticSign).
func signTol(v, tol float64) int {
	if v > tol {
		return 1
	}
	if v < -tol {
		return -1
	}
	return 0
}
