package plan

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/sqlast"
	"repro/internal/value"
)

// Options configures planning.
type Options struct {
	// Reorder permits join reordering along base-equality edges. The
	// executor restores the original derivation order when the planner
	// deviates from the FROM-clause order, so results are unchanged;
	// reordering only changes how much work the join does.
	Reorder bool
}

// Build lowers a query into a Plan over the given database, validating
// aliases, column references and condition sorts exactly as the
// pre-planner evaluator did.
func Build(q *sqlast.Query, d *db.Database, opts Options) (*Plan, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("plan: query needs at least one table")
	}
	r, err := NewResolver(q, d.Schema())
	if err != nil {
		return nil, err
	}
	b := &builder{q: q, d: d, Resolver: r}
	for _, c := range q.Select {
		if _, err := b.ColType(c); err != nil {
			return nil, err
		}
	}

	// Normalize conditions and compute their canonical order: original
	// join position (the earliest FROM position binding every referenced
	// alias), then WHERE-clause order. This is the order the pre-planner
	// evaluator appended constraint atoms in, and the executor reproduces
	// it per derivation whatever join order runs.
	type normCond struct {
		c       sqlast.Condition
		origPos int
	}
	norm := make([]normCond, 0, len(q.Where))
	for _, c := range q.Where {
		nc, err := b.Normalize(c)
		if err != nil {
			return nil, err
		}
		pos, err := b.earliestPosition(nc, b.origPos)
		if err != nil {
			return nil, err
		}
		norm = append(norm, normCond{c: nc, origPos: pos})
	}
	sort.SliceStable(norm, func(i, j int) bool { return norm[i].origPos < norm[j].origPos })

	// Base-equality adjacency between FROM positions, for join ordering,
	// plus the concrete join edges (with resolved column indices) the
	// cost model estimates fanout from.
	edges := make([][]bool, len(q.From))
	for i := range edges {
		edges[i] = make([]bool, len(q.From))
	}
	var jedges []joinEdge
	for _, nc := range norm {
		if nc.c.Kind != sqlast.CondBaseEq {
			continue
		}
		l, r := b.origPos[nc.c.LCol.Table], b.origPos[nc.c.RCol.Table]
		if l != r {
			edges[l][r], edges[r][l] = true, true
			jedges = append(jedges, joinEdge{
				l: l, r: r,
				lcol: b.rels[nc.c.LCol.Table].ColumnIndex(nc.c.LCol.Col),
				rcol: b.rels[nc.c.RCol.Table].ColumnIndex(nc.c.RCol.Col),
			})
		}
	}

	order := identityOrder(len(q.From))
	if opts.Reorder && len(q.From) > 1 {
		order = b.chooseOrder(order, edges, jedges)
	}

	nullIDs, nullIndex := d.NumNullIndex()
	p := &Plan{
		Schema:  d.Schema(),
		From:    q.From,
		Order:   order,
		Limit:   q.Limit,
		NullIDs: nullIDs,
		Index:   nullIndex,
	}
	p.K = len(p.NullIDs)
	p.Identity = true
	stepOf := make(map[string]int, len(q.From)) // alias → step
	for s, o := range order {
		if s != o {
			p.Identity = false
		}
		t := q.From[o]
		stepOf[t.Alias] = s
		p.Steps = append(p.Steps, Step{
			Relation:   t.Relation,
			Alias:      t.Alias,
			Rel:        b.rels[t.Alias],
			Access:     FullScan,
			AccessCond: -1,
		})
	}

	// Resolve conditions against the chosen order and push each down to
	// the earliest step at which it is checkable.
	for ci, nc := range norm {
		pc, err := b.lowerCond(nc.c, stepOf)
		if err != nil {
			return nil, err
		}
		p.Conds = append(p.Conds, pc)
		p.Steps[pc.Step].Conds = append(p.Steps[pc.Step].Conds, ci)
	}

	// Access-path selection: prefer an index probe on a base equality
	// linking the step to an earlier one, then an index lookup on a
	// base-constant filter, then a full scan.
	for s := range p.Steps {
		st := &p.Steps[s]
		for _, ci := range st.Conds {
			c := &p.Conds[ci]
			if c.Kind != CondBaseEq {
				continue
			}
			local, outer := c.L, c.R
			if local.Step != s {
				local, outer = outer, local
			}
			if local.Step == s && outer.Step < s {
				st.Access = IndexEq
				st.LocalCol = local.Col
				st.Outer = outer
				st.AccessCond = ci
				break
			}
		}
		if st.Access != FullScan {
			continue
		}
		for _, ci := range st.Conds {
			c := &p.Conds[ci]
			if c.Kind == CondBaseEqConst && c.L.Step == s {
				st.Access = IndexConst
				st.LocalCol = c.L.Col
				st.Lit = c.Lit
				st.AccessCond = ci
				break
			}
		}
	}

	// Projection.
	p.Project = make([]CellRef, len(q.Select))
	for i, c := range q.Select {
		cell, err := b.cellRef(c, stepOf)
		if err != nil {
			return nil, err
		}
		p.Project[i] = cell
	}
	return p, nil
}

type builder struct {
	q *sqlast.Query
	d *db.Database
	*Resolver
}

func (b *builder) cellRef(c sqlast.ColRef, stepOf map[string]int) (CellRef, error) {
	rel, ok := b.rels[c.Table]
	if !ok {
		return CellRef{}, fmt.Errorf("plan: unknown alias %s", c.Table)
	}
	i := rel.ColumnIndex(c.Col)
	if i < 0 {
		return CellRef{}, fmt.Errorf("plan: relation %s has no column %s", rel.Name, c.Col)
	}
	return CellRef{Step: stepOf[c.Table], Col: i}, nil
}

// earliestPosition is the position (under the given alias→position map)
// after which every alias referenced by the condition is bound.
func (b *builder) earliestPosition(c sqlast.Condition, posOf map[string]int) (int, error) {
	pos := 0
	visit := func(alias string) error {
		p, ok := posOf[alias]
		if !ok {
			return fmt.Errorf("plan: unknown alias %s", alias)
		}
		if p > pos {
			pos = p
		}
		return nil
	}
	switch c.Kind {
	case sqlast.CondBaseEq:
		if err := visit(c.LCol.Table); err != nil {
			return 0, err
		}
		if err := visit(c.RCol.Table); err != nil {
			return 0, err
		}
	case sqlast.CondBaseEqConst:
		if err := visit(c.LCol.Table); err != nil {
			return 0, err
		}
	case sqlast.CondNumCmp:
		var walk func(e *sqlast.Expr) error
		walk = func(e *sqlast.Expr) error {
			switch e.Kind {
			case sqlast.ExprCol:
				return visit(e.Col.Table)
			case sqlast.ExprConst:
				return nil
			case sqlast.ExprNeg:
				return walk(e.L)
			default:
				if err := walk(e.L); err != nil {
					return err
				}
				return walk(e.R)
			}
		}
		if err := walk(c.LExp); err != nil {
			return 0, err
		}
		if err := walk(c.RExp); err != nil {
			return 0, err
		}
	}
	return pos, nil
}

// lowerCond resolves a normalized condition's column references into cell
// references under the chosen join order and computes its pipeline step.
func (b *builder) lowerCond(c sqlast.Condition, stepOf map[string]int) (Cond, error) {
	step := 0
	bind := func(cr sqlast.ColRef) (CellRef, error) {
		cell, err := b.cellRef(cr, stepOf)
		if err != nil {
			return cell, err
		}
		if cell.Step > step {
			step = cell.Step
		}
		return cell, nil
	}
	switch c.Kind {
	case sqlast.CondBaseEq:
		l, err := bind(c.LCol)
		if err != nil {
			return Cond{}, err
		}
		r, err := bind(c.RCol)
		if err != nil {
			return Cond{}, err
		}
		return Cond{Kind: CondBaseEq, L: l, R: r, Step: step}, nil
	case sqlast.CondBaseEqConst:
		l, err := bind(c.LCol)
		if err != nil {
			return Cond{}, err
		}
		return Cond{Kind: CondBaseEqConst, L: l, Lit: value.Base(c.Lit), Step: step}, nil
	case sqlast.CondNumCmp:
		var lower func(e *sqlast.Expr) (*NumExpr, error)
		lower = func(e *sqlast.Expr) (*NumExpr, error) {
			switch e.Kind {
			case sqlast.ExprCol:
				cell, err := bind(e.Col)
				if err != nil {
					return nil, err
				}
				return &NumExpr{Kind: sqlast.ExprCol, Cell: cell}, nil
			case sqlast.ExprConst:
				return &NumExpr{Kind: sqlast.ExprConst, Const: e.Const}, nil
			case sqlast.ExprNeg:
				l, err := lower(e.L)
				if err != nil {
					return nil, err
				}
				return &NumExpr{Kind: sqlast.ExprNeg, L: l}, nil
			default:
				l, err := lower(e.L)
				if err != nil {
					return nil, err
				}
				r, err := lower(e.R)
				if err != nil {
					return nil, err
				}
				return &NumExpr{Kind: e.Kind, L: l, R: r}, nil
			}
		}
		le, err := lower(c.LExp)
		if err != nil {
			return Cond{}, err
		}
		re, err := lower(c.RExp)
		if err != nil {
			return Cond{}, err
		}
		return Cond{Kind: CondNumCmp, Op: c.Op, LExp: le, RExp: re, Step: step}, nil
	}
	return Cond{}, fmt.Errorf("plan: unknown condition kind")
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// connPattern reports, for each step after the first, whether the table
// joined there is linked by a base equality to an earlier step — i.e.
// whether the step is a hash-joinable join rather than a cartesian
// product.
func connPattern(order []int, edges [][]bool) []bool {
	pat := make([]bool, 0, len(order)-1)
	for i := 1; i < len(order); i++ {
		conn := false
		for j := 0; j < i && !conn; j++ {
			conn = edges[order[i]][order[j]]
		}
		pat = append(pat, conn)
	}
	return pat
}

// betterPattern reports whether pattern a joins strictly earlier than b:
// at the first step where they differ, a is equality-connected and b is
// not. Ties keep the FROM-clause order (and its streaming guarantee).
func betterPattern(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i]
		}
	}
	return false
}

// joinEdge is one base-equality link between two FROM positions, with the
// column indices resolved, so the cost model can ask the database for
// per-column distinct-key counts.
type joinEdge struct {
	l, r       int
	lcol, rcol int
}

// chooseOrder is the cost-based join ordering: candidate left-deep orders
// are built greedily (always extending with the equality-connected table
// of smallest estimated fanout), and a candidate replaces the FROM-clause
// order only when it is strictly better — either it joins along equality
// edges strictly earlier (avoiding a cartesian product the FROM order
// forces), or it has the same connectivity pattern and a strictly lower
// estimated cost including the buffer-and-sort penalty every reordered
// plan pays to restore derivation order (see exec.Aggregate). Ties keep the
// FROM order and its streaming guarantee.
func (b *builder) chooseOrder(identity []int, edges [][]bool, jedges []joinEdge) []int {
	n := len(b.q.From)
	size := make([]float64, n)
	hasEdge := make([]bool, n)
	for i, t := range b.q.From {
		size[i] = float64(b.d.Len(t.Relation))
		for j := 0; j < n; j++ {
			hasEdge[i] = hasEdge[i] || edges[i][j]
		}
	}

	// fanout estimates the per-outer-row match count of joining position
	// t through its local column c: |t| / distinct(t.c). The distinct
	// count is one Index call — a sequential scan over the columnar
	// layout on first use, cached on the database afterwards and kept
	// fresh by incremental index maintenance: an insert extends the
	// cached groups in place, so the estimate tracks the live relation
	// without a rebuild.
	distinct := make(map[[2]int]float64)
	fanout := func(t, c int) float64 {
		key := [2]int{t, c}
		dv, ok := distinct[key]
		if !ok {
			dv = float64(b.d.Index(b.q.From[t].Relation, c).Distinct())
			distinct[key] = dv
		}
		if dv <= 0 {
			return 0
		}
		return size[t] / dv
	}
	// bestFanout is the most selective equality edge linking position t
	// to the bound set (-1 when none applies).
	bestFanout := func(t int, bound []int) float64 {
		f := -1.0
		for _, e := range jedges {
			o, c := -1, 0
			if e.l == t {
				o, c = e.r, e.lcol
			} else if e.r == t {
				o, c = e.l, e.rcol
			}
			if o < 0 {
				continue
			}
			for _, j := range bound {
				if j == o {
					if est := fanout(t, c); f < 0 || est < f {
						f = est
					}
					break
				}
			}
		}
		return f
	}

	// estimate costs a left-deep order: scanned rows of the first table
	// plus every intermediate cardinality, with equality joins scaled by
	// estimated fanout and cartesian steps by table size; non-identity
	// orders add the final cardinality once more for the derivation-order
	// restore (buffer + sort) the executor performs.
	estimate := func(order []int) float64 {
		card := size[order[0]]
		work := card
		for i := 1; i < n; i++ {
			t := order[i]
			if f := bestFanout(t, order[:i]); f >= 0 {
				card *= f
			} else {
				card *= size[t]
			}
			work += card
		}
		if !isIdentity(order) {
			work += card
		}
		return work
	}

	// greedyFrom grows an order from a start table, always taking the
	// connected candidate with the smallest estimated fanout (ties: the
	// smaller table, then the earlier FROM position), falling back to the
	// smallest remaining table when nothing is connected.
	greedyFrom := func(start int) []int {
		used := make([]bool, n)
		order := []int{start}
		used[start] = true
		for len(order) < n {
			next, nextF := -1, -1.0
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				f := bestFanout(i, order)
				if f < 0 {
					continue
				}
				// cmp.Compare rather than raw float equality: identical for
				// the finite fanouts bestFanout produces, but a total order,
				// so a pathological NaN estimate cannot destabilize the
				// greedy tie-break.
				if c := cmp.Compare(f, nextF); next < 0 || c < 0 || (c == 0 && size[i] < size[next]) {
					next, nextF = i, f
				}
			}
			if next < 0 {
				for i := 0; i < n; i++ {
					if used[i] {
						continue
					}
					if next < 0 || size[i] < size[next] {
						next = i
					}
				}
			}
			order = append(order, next)
			used[next] = true
		}
		return order
	}

	best := identity
	bestPat := connPattern(identity, edges)
	bestCost := estimate(identity)
	for start := 0; start < n; start++ {
		if !hasEdge[start] && anyEdge(hasEdge) {
			continue
		}
		g := greedyFrom(start)
		gp := connPattern(g, edges)
		gc := estimate(g)
		if betterPattern(gp, bestPat) || (patternEqual(gp, bestPat) && gc < bestCost) {
			best, bestPat, bestCost = g, gp, gc
		}
	}
	return best
}

func isIdentity(order []int) bool {
	for i, o := range order {
		if i != o {
			return false
		}
	}
	return true
}

func anyEdge(hasEdge []bool) bool {
	for _, h := range hasEdge {
		if h {
			return true
		}
	}
	return false
}

func patternEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
