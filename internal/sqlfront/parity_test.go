package sqlfront

// Parity suite for the planner/executor refactor: the streaming pipeline
// (plan.Build + exec.Collect, with and without join reordering) must
// reproduce the pre-refactor one-shot evaluator (reference_test.go)
// byte for byte — candidates in derivation order, Phi DNFs with
// disjuncts and atoms in derivation order, null indexing, and derivation
// counts — on randomized queries over generated sales databases.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/realfmla"
	"repro/internal/schema"
	"repro/internal/value"
)

// compareResults fails the test unless got is byte-identical to want.
func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Derivations != want.Derivations {
		t.Fatalf("%s: derivations = %d, want %d", label, got.Derivations, want.Derivations)
	}
	if len(got.NullIDs) != len(want.NullIDs) {
		t.Fatalf("%s: nullIDs = %v, want %v", label, got.NullIDs, want.NullIDs)
	}
	for i := range want.NullIDs {
		if got.NullIDs[i] != want.NullIDs[i] {
			t.Fatalf("%s: nullIDs = %v, want %v", label, got.NullIDs, want.NullIDs)
		}
	}
	if len(got.Index) != len(want.Index) {
		t.Fatalf("%s: index = %v, want %v", label, got.Index, want.Index)
	}
	for k, v := range want.Index {
		if got.Index[k] != v {
			t.Fatalf("%s: index = %v, want %v", label, got.Index, want.Index)
		}
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		if !got.Candidates[i].Tuple.Equal(want.Candidates[i].Tuple) {
			t.Fatalf("%s: candidate %d tuple = %v, want %v (order-sensitive)",
				label, i, got.Candidates[i].Tuple, want.Candidates[i].Tuple)
		}
		if !realfmla.Equal(got.Candidates[i].Phi, want.Candidates[i].Phi) {
			t.Fatalf("%s: candidate %d (%v) Phi =\n  %s\nwant\n  %s",
				label, i, got.Candidates[i].Tuple, got.Candidates[i].Phi, want.Candidates[i].Phi)
		}
	}
}

// execCombos runs the query through the planner/executor in FROM order
// and reordered, and checks each against want.
func execCombos(t *testing.T, q *Query, d *db.Database, want *Result) {
	t.Helper()
	for _, reorder := range []bool{false, true} {
		p, err := plan.Build(q, d, plan.Options{Reorder: reorder})
		if err != nil {
			t.Fatalf("plan.Build(reorder=%v): %v", reorder, err)
		}
		label := fmt.Sprintf("reorder=%v [%s]", reorder, q)
		got, err := exec.Collect(p, d, exec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		compareResults(t, label, got, want)
	}
}

// checkParity compares Evaluate and both join orders with the
// reference evaluator, including error agreement.
func checkParity(t *testing.T, q *Query, d *db.Database) {
	t.Helper()
	want, refErr := referenceEvaluate(q, d)
	got, newErr := Evaluate(q, d)
	if (refErr == nil) != (newErr == nil) {
		t.Fatalf("error mismatch on %s: reference=%v new=%v", q, refErr, newErr)
	}
	if refErr != nil {
		return
	}
	compareResults(t, "Evaluate ["+q.String()+"]", got, want)
	execCombos(t, q, d, want)
}

func genSales(t testing.TB, seed int64) *db.Database {
	t.Helper()
	d, err := datagen.Generate(datagen.Config{
		Seed: seed, Products: 40, Orders: 30, Market: 12, Segments: 5,
		NullRate: 0.3, MarketNullRate: 0.6, BaseNullRate: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// queryGen builds random (mostly valid) queries over the sales schema.
type queryGen struct {
	rng  *rand.Rand
	rels []struct {
		name string
		cols []schema.Column
	}
}

func newQueryGen(rng *rand.Rand) *queryGen {
	g := &queryGen{rng: rng}
	for _, r := range datagen.Schema().Relations() {
		g.rels = append(g.rels, struct {
			name string
			cols []schema.Column
		}{r.Name, r.Columns})
	}
	return g
}

func (g *queryGen) col(rel int, t schema.ColType) (string, bool) {
	var opts []string
	for _, c := range g.rels[rel].cols {
		if c.Type == t {
			opts = append(opts, c.Name)
		}
	}
	if len(opts) == 0 {
		return "", false
	}
	return opts[g.rng.Intn(len(opts))], true
}

func (g *queryGen) expr(aliases []string, relOf []int, depth int) *Expr {
	switch {
	case depth > 0 && g.rng.Intn(3) == 0:
		k := ExprKind([]ExprKind{ExprAdd, ExprSub, ExprMul}[g.rng.Intn(3)])
		return &Expr{Kind: k, L: g.expr(aliases, relOf, depth-1), R: g.expr(aliases, relOf, depth-1)}
	case depth > 0 && g.rng.Intn(5) == 0:
		return &Expr{Kind: ExprNeg, L: g.expr(aliases, relOf, depth-1)}
	case g.rng.Intn(3) == 0:
		return &Expr{Kind: ExprConst, Const: float64(g.rng.Intn(41) - 20)}
	default:
		a := g.rng.Intn(len(aliases))
		col, ok := g.col(relOf[a], schema.Num)
		if !ok {
			return &Expr{Kind: ExprConst, Const: float64(g.rng.Intn(41) - 20)}
		}
		return &Expr{Kind: ExprCol, Col: ColRef{Table: aliases[a], Col: col}}
	}
}

func (g *queryGen) query() *Query {
	q := &Query{}
	nt := 1 + g.rng.Intn(3)
	aliases := make([]string, nt)
	relOf := make([]int, nt)
	for i := 0; i < nt; i++ {
		relOf[i] = g.rng.Intn(len(g.rels))
		aliases[i] = fmt.Sprintf("T%d", i)
		q.From = append(q.From, TableRef{Relation: g.rels[relOf[i]].name, Alias: aliases[i]})
	}
	// Projection: 1-2 random columns of random sort.
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		a := g.rng.Intn(nt)
		cols := g.rels[relOf[a]].cols
		c := cols[g.rng.Intn(len(cols))]
		q.Select = append(q.Select, ColRef{Table: aliases[a], Col: c.Name})
	}
	// Join conditions: for each adjacent pair, usually a base equality
	// (sometimes sort-mismatched or over numeric columns, exercising the
	// normalizer and error parity).
	for i := 1; i < nt; i++ {
		if g.rng.Intn(4) == 0 {
			continue // leave a cartesian product in
		}
		lt := schema.ColType(schema.Base)
		if g.rng.Intn(5) == 0 {
			lt = schema.Num
		}
		lcol, lok := g.col(relOf[i-1], lt)
		rcol, rok := g.col(relOf[i], lt)
		if !lok || !rok {
			continue
		}
		l := ColRef{Table: aliases[i-1], Col: lcol}
		r := ColRef{Table: aliases[i], Col: rcol}
		q.Where = append(q.Where, Condition{
			Kind: CondBaseEq, LCol: l, RCol: r, Op: Eq,
			LExp: &Expr{Kind: ExprCol, Col: l}, RExp: &Expr{Kind: ExprCol, Col: r},
		})
	}
	// Constant filters.
	if g.rng.Intn(2) == 0 {
		a := g.rng.Intn(nt)
		if col, ok := g.col(relOf[a], schema.Base); ok {
			q.Where = append(q.Where, Condition{
				Kind: CondBaseEqConst,
				LCol: ColRef{Table: aliases[a], Col: col},
				Lit:  fmt.Sprintf("seg%d", g.rng.Intn(5)),
			})
		}
	}
	// Numeric conditions.
	for n := g.rng.Intn(3); n > 0; n-- {
		q.Where = append(q.Where, Condition{
			Kind: CondNumCmp,
			Op:   CmpOp(g.rng.Intn(6)),
			LExp: g.expr(aliases, relOf, 2),
			RExp: g.expr(aliases, relOf, 2),
		})
	}
	if g.rng.Intn(3) == 0 {
		q.Limit = 1 + g.rng.Intn(5)
	}
	return q
}

// TestPlannerExecutorParityRandom is the randomized parity suite of the
// refactor's acceptance criteria.
func TestPlannerExecutorParityRandom(t *testing.T) {
	for _, dbSeed := range []int64{11, 22, 33} {
		d := genSales(t, dbSeed)
		g := newQueryGen(rand.New(rand.NewSource(1000 * dbSeed)))
		for i := 0; i < 60; i++ {
			checkParity(t, g.query(), d)
		}
	}
}

// TestParityExperimentQueries pins parity on the paper's three
// decision-support queries (with and without their LIMIT).
func TestParityExperimentQueries(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 2020, Products: 300, Orders: 200, Market: 60, Segments: 30,
		NullRate: 0.1, MarketNullRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{datagen.CompetitiveAdvantage, datagen.NeverKnowinglyUndersold, datagen.UnfairDiscount} {
		q := MustParse(sql)
		checkParity(t, q, d)
		q.Limit = 0
		checkParity(t, q, d)
	}
}

// TestParityLimitOrderSensitivity pins the order-sensitive semantics of
// LIMIT over the implicit DISTINCT: the first n distinct tuples in
// derivation order are kept, and every derivation of a kept tuple — even
// one enumerated after the limit is reached — contributes to its
// constraint.
func TestParityLimitOrderSensitivity(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("R",
			schema.Column{Name: "g", Type: schema.Base},
			schema.Column{Name: "x", Type: schema.Num}),
		schema.MustRelation("S",
			schema.Column{Name: "g", Type: schema.Base},
			schema.Column{Name: "y", Type: schema.Num}),
	)
	d := db.New(s)
	// Interleaved groups so distinct-tuple order differs from row order,
	// with nulls so late derivations add real constraints.
	d.MustInsert("R", value.Base("a"), value.NullNum(0))
	d.MustInsert("R", value.Base("b"), value.Num(1))
	d.MustInsert("R", value.Base("a"), value.Num(2))
	d.MustInsert("R", value.Base("c"), value.NullNum(1))
	d.MustInsert("R", value.Base("b"), value.NullNum(2))
	d.MustInsert("S", value.Base("a"), value.Num(3))
	d.MustInsert("S", value.Base("b"), value.NullNum(3))
	d.MustInsert("S", value.Base("a"), value.NullNum(4))

	for _, src := range []string{
		`SELECT R.g FROM R R LIMIT 1`,
		`SELECT R.g FROM R R LIMIT 2`,
		`SELECT R.g FROM R R WHERE R.x > 0 LIMIT 2`,
		`SELECT R.g FROM R R, S S WHERE R.g = S.g LIMIT 1`,
		`SELECT R.g FROM R R, S S WHERE R.g = S.g AND R.x <= S.y LIMIT 2`,
		`SELECT S.g, R.x FROM R R, S S WHERE R.g = S.g AND R.x <= S.y LIMIT 3`,
	} {
		checkParity(t, MustParse(src), d)
	}

	// Kept-tuple constraints must include post-limit derivations: R.g='a'
	// appears at rows 0 and 2; with LIMIT 1 its Phi still covers row 2.
	res, err := Evaluate(MustParse(`SELECT R.g FROM R R WHERE R.x > 0 LIMIT 1`), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 || res.Candidates[0].Tuple[0].Str() != "a" {
		t.Fatalf("candidates = %v", res.Candidates)
	}
	// Phi = (z0 > 0) ∨ true — the second derivation (x=2) is constraint-free,
	// so the disjunction collapses to true.
	if _, ok := res.Candidates[0].Phi.(realfmla.FTrue); !ok {
		t.Fatalf("Phi = %s, want true (post-limit derivation must count)", res.Candidates[0].Phi)
	}
}

// TestParitySignedZeroCandidates pins the tuple-grouping contract on the
// edge the fused columnar aggregation could get wrong: -0 and +0 are
// distinct projected candidates (value.Tuple.Key keeps the sign of
// zero), while NaN payloads collapse into one.
func TestParitySignedZeroCandidates(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R",
		schema.Column{Name: "x", Type: schema.Num}))
	d := db.New(s)
	d.MustInsert("R", value.Num(0))
	d.MustInsert("R", value.Num(math.Copysign(0, -1)))
	d.MustInsert("R", value.Num(0))
	checkParity(t, MustParse(`SELECT R.x FROM R R`), d)
	res, err := Evaluate(MustParse(`SELECT R.x FROM R R`), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("%d candidates, want 2 (+0 and -0 are distinct)", len(res.Candidates))
	}
}

// TestReorderedJoinRestoresDerivationOrder forces a plan whose FROM order
// starts with a cartesian product (so the planner reorders) and checks
// byte-identical output.
func TestReorderedJoinRestoresDerivationOrder(t *testing.T) {
	d := genSales(t, 7)
	// FROM order T0 (Orders), T1 (Products), T2 (Market): T1 joins T2 by
	// seg, T0 is unrelated — the naive order does |Orders|×|Products|
	// work before the equality join; the planner pulls the join forward.
	q := MustParse(`SELECT T1.seg FROM Orders T0, Products T1, Market T2
		WHERE T1.seg = T2.seg AND T1.rrp * T1.dis <= T2.rrp * T2.dis LIMIT 10`)
	p, err := plan.Build(q, d, plan.Options{Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Identity {
		t.Fatalf("planner kept the cartesian-first order %v", p.Order)
	}
	checkParity(t, q, d)
}

// checkTopKCut aggregates q's full candidate field (LIMIT 0), as the
// LIMIT-k race does, with and without the race cut exec.Options.TopK = k,
// on both plan shapes. The counts must agree; every candidate up to the
// k-th saturated one must be identical, and every one after it a zero
// entry.
func checkTopKCut(t *testing.T, q *Query, d *db.Database, k int) {
	t.Helper()
	for _, reorder := range []bool{false, true} {
		p, err := plan.Build(q, d, plan.Options{Reorder: reorder})
		if err != nil {
			return // error parity is checkParity's
		}
		pl := *p
		pl.Limit = 0
		label := fmt.Sprintf("TopK=%d reorder=%v identity=%v [%s]", k, reorder, p.Identity, q)
		want, sat, err := exec.Aggregate(&pl, d, exec.Options{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, _, err := exec.Aggregate(&pl, d, exec.Options{TopK: k}, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.Derivations != want.Derivations || len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("%s: %d derivations / %d candidates, want %d / %d", label,
				got.Derivations, len(got.Candidates), want.Derivations, len(want.Candidates))
		}
		live := len(want.Candidates)
		for i, certain := 0, 0; i < len(sat); i++ {
			if sat[i] {
				if _, ok := want.Candidates[i].Phi.(realfmla.FTrue); !ok {
					t.Fatalf("%s: saturated candidate %d has Phi %s", label, i, want.Candidates[i].Phi)
				}
				if certain++; certain == k {
					live = i + 1
					break
				}
			}
		}
		for i, w := range want.Candidates {
			g := got.Candidates[i]
			if i >= live {
				if g.Phi != nil || g.Tuple != nil {
					t.Fatalf("%s: candidate %d after the cut at %d = %v", label, i, live, g)
				}
				continue
			}
			if g.Tuple.Key() != w.Tuple.Key() || !realfmla.Equal(g.Phi, w.Phi) {
				t.Fatalf("%s: live candidate %d = %v %s, want %v %s", label, i, g.Tuple, g.Phi, w.Tuple, w.Phi)
			}
		}
	}
}

// TestAggregateTopKCut: the executor's race cut changes nothing the race
// reads, on random queries and on the paper's three queries.
func TestAggregateTopKCut(t *testing.T) {
	for _, dbSeed := range []int64{11, 22, 33} {
		d := genSales(t, dbSeed)
		g := newQueryGen(rand.New(rand.NewSource(1000 * dbSeed)))
		for i := 0; i < 60; i++ {
			q := g.query()
			for _, k := range []int{1, 3} {
				checkTopKCut(t, q, d, k)
			}
		}
	}
	d, err := datagen.Generate(datagen.Config{
		Seed: 2020, Products: 300, Orders: 200, Market: 60, Segments: 30,
		NullRate: 0.1, MarketNullRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{datagen.CompetitiveAdvantage, datagen.NeverKnowinglyUndersold, datagen.UnfairDiscount} {
		for _, k := range []int{1, 25, 1 << 20} {
			checkTopKCut(t, MustParse(sql), d, k)
		}
	}
}
