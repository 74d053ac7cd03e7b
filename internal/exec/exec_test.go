package exec_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/realfmla"
	"repro/internal/schema"
	"repro/internal/sqlfront"
	"repro/internal/value"
)

func testDB(t *testing.T) *db.Database {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("R",
			schema.Column{Name: "g", Type: schema.Base},
			schema.Column{Name: "x", Type: schema.Num}),
		schema.MustRelation("S",
			schema.Column{Name: "g", Type: schema.Base},
			schema.Column{Name: "y", Type: schema.Num}),
	)
	d := db.New(s)
	d.MustInsert("R", value.Base("a"), value.NullNum(0))
	d.MustInsert("R", value.Base("b"), value.Num(1))
	d.MustInsert("R", value.Base("a"), value.Num(2))
	d.MustInsert("S", value.Base("a"), value.Num(3))
	d.MustInsert("S", value.Base("b"), value.NullNum(1))
	return d
}

func mustPlan(t *testing.T, d *db.Database, src string, opts plan.Options) *plan.Plan {
	t.Helper()
	p, err := plan.Build(sqlfront.MustParse(src), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCursorStreamsDerivations: the pull iterator yields each surviving
// join combination exactly once, with canonical-order constraint atoms.
func TestCursorStreamsDerivations(t *testing.T) {
	d := testDB(t)
	p := mustPlan(t, d, `SELECT R.g FROM R R, S S WHERE R.g = S.g AND R.x <= S.y`, plan.Options{})
	cur := exec.NewCursor(p, d, exec.Options{})
	var derivs []*exec.Deriv
	for {
		dv, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if dv == nil {
			break
		}
		derivs = append(derivs, dv)
	}
	// Survivors: (r0,s0) with z0<=3, (r1,s1) with 1<=z1, (r2,s0) decided
	// true (2<=3, no atom).
	if len(derivs) != 3 {
		t.Fatalf("%d derivations: %v", len(derivs), derivs)
	}
	if len(derivs[0].Conj) != 1 || len(derivs[1].Conj) != 1 || len(derivs[2].Conj) != 0 {
		t.Errorf("constraint shapes wrong: %v", derivs)
	}
}

// reorderQuery is the reordered A/C/B query: its FROM order has the A×C
// cartesian product first and B joins both, so the planner moves B ahead
// of C and the executor's emission order is not the derivation order.
const reorderQuery = `SELECT B.t FROM A A, C C, B B WHERE B.k = A.k AND B.k = C.k AND B.n <= C.n`

// reorderDB is the fixture of reorderQuery. Every row shares the join
// key, so the 1×2×4 combinations all survive the base equalities. C0.n
// is 10 and C1.n a null, so a derivation is unconditional exactly when
// it binds C0 and a B row whose n is a constant ≤ 10. B's rows are, in
// order, (t, n) = (p, null), (q, 1), (r, null), (p, b3). In derivation
// order (A, then C, then B) the C0 pass comes first: p, q (saturated), r,
// p; then the C1 pass, all atoms: p, q, r, p.
func reorderDB(t *testing.T, b3 value.Value) *db.Database {
	t.Helper()
	s := schema.MustNew(
		schema.MustRelation("A", schema.Column{Name: "k", Type: schema.Base}),
		schema.MustRelation("B",
			schema.Column{Name: "k", Type: schema.Base},
			schema.Column{Name: "t", Type: schema.Base},
			schema.Column{Name: "n", Type: schema.Num}),
		schema.MustRelation("C",
			schema.Column{Name: "k", Type: schema.Base},
			schema.Column{Name: "n", Type: schema.Num}),
	)
	d := db.New(s)
	d.MustInsert("A", value.Base("x"))
	d.MustInsert("C", value.Base("x"), value.Num(10))
	d.MustInsert("C", value.Base("x"), value.NullNum(0))
	d.MustInsert("B", value.Base("x"), value.Base("p"), value.NullNum(1))
	d.MustInsert("B", value.Base("x"), value.Base("q"), value.Num(1))
	d.MustInsert("B", value.Base("x"), value.Base("r"), value.NullNum(2))
	d.MustInsert("B", value.Base("x"), value.Base("p"), b3)
	return d
}

// aggregated is one Aggregate run with its onSaturated calls.
type aggregated struct {
	res   *exec.Result
	sat   []bool
	early []string // "idx:tuple" per onSaturated call, in call order
}

func aggregate(t *testing.T, p *plan.Plan, d *db.Database, opts exec.Options) aggregated {
	t.Helper()
	var a aggregated
	var err error
	a.res, a.sat, err = exec.Aggregate(p, d, opts, func(idx int, c exec.Candidate) {
		if _, ok := c.Phi.(realfmla.FTrue); !ok {
			t.Errorf("saturated candidate %d Phi = %s", idx, c.Phi)
		}
		a.early = append(a.early, fmt.Sprintf("%d:%s", idx, c.Tuple))
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// aggregateReordered runs src on d through the reordered plan and checks
// that everything Aggregate reports — candidates in order, formulas,
// saturation marks, the onSaturated calls and Derivations — equals the
// FROM-order (Identity) plan's.
func aggregateReordered(t *testing.T, d *db.Database, src string, opts exec.Options) aggregated {
	t.Helper()
	re := mustPlan(t, d, src, plan.Options{Reorder: true})
	id := mustPlan(t, d, src, plan.Options{Reorder: false})
	if re.Identity || !id.Identity {
		t.Fatalf("plan orders %v and %v, want a reordered and an identity plan", re.Order, id.Order)
	}
	got, want := aggregate(t, re, d, opts), aggregate(t, id, d, opts)
	if got.res.Derivations != want.res.Derivations {
		t.Errorf("Derivations = %d, identity plan %d", got.res.Derivations, want.res.Derivations)
	}
	if len(got.res.Candidates) != len(want.res.Candidates) {
		t.Fatalf("candidates = %v, identity plan %v", got.res.Candidates, want.res.Candidates)
	}
	for i, w := range want.res.Candidates {
		g := got.res.Candidates[i]
		if !g.Tuple.Equal(w.Tuple) || (g.Phi == nil) != (w.Phi == nil) || (g.Phi != nil && !realfmla.Equal(g.Phi, w.Phi)) {
			t.Errorf("candidate %d = (%v, %v), identity plan (%v, %v)", i, g.Tuple, g.Phi, w.Tuple, w.Phi)
		}
	}
	if !slices.Equal(got.sat, want.sat) {
		t.Errorf("sat = %v, identity plan %v", got.sat, want.sat)
	}
	if !slices.Equal(got.early, want.early) {
		t.Errorf("onSaturated calls = %v, identity plan %v", got.early, want.early)
	}
	return got
}

// emissions lists the cursor's derivations in executor order.
func emissions(t *testing.T, p *plan.Plan, d *db.Database) []string {
	t.Helper()
	cur := exec.NewCursor(p, d, exec.Options{})
	var out []string
	for {
		dv, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if dv == nil {
			return out
		}
		out = append(out, fmt.Sprintf("%s %v", dv.Tuple, dv.Conj))
	}
}

// TestAggregateRestoresOrderAfterReorder: a reordered plan still folds
// its derivations in the original FROM-clause derivation order, so
// candidate order and each Phi's disjunct order are the FROM-order
// plan's even though the executor emits in another order.
func TestAggregateRestoresOrderAfterReorder(t *testing.T) {
	d := reorderDB(t, value.NullNum(3))
	re := mustPlan(t, d, reorderQuery, plan.Options{Reorder: true})
	id := mustPlan(t, d, reorderQuery, plan.Options{Reorder: false})
	ge, we := emissions(t, re, d), emissions(t, id, d)
	if slices.Equal(ge, we) {
		t.Fatalf("the fixture's reordered plan %v emits in derivation order; it checks nothing", re.Order)
	}
	slices.Sort(ge)
	slices.Sort(we)
	if !slices.Equal(ge, we) {
		t.Fatalf("reordered emissions %v, identity plan %v", ge, we)
	}

	a := aggregateReordered(t, d, reorderQuery, exec.Options{})
	if a.res.Derivations != 8 {
		t.Errorf("Derivations = %d, want 8", a.res.Derivations)
	}
	var tups []string
	for _, c := range a.res.Candidates {
		tups = append(tups, c.Tuple.String())
	}
	if want := []string{"(p)", "(q)", "(r)"}; !slices.Equal(tups, want) {
		t.Fatalf("candidates = %v, want %v", tups, want)
	}
	if or, ok := a.res.Candidates[0].Phi.(realfmla.FOr); !ok || len(or.Fs) != 4 {
		t.Errorf("candidate p Phi = %s, want four disjuncts", a.res.Candidates[0].Phi)
	}
	if !slices.Equal(a.sat, []bool{false, true, false}) || !slices.Equal(a.early, []string{"1:(q)"}) {
		t.Errorf("sat = %v, onSaturated calls = %v", a.sat, a.early)
	}
}

// TestAggregateLimitAndSaturation: under a LIMIT, beyond-limit tuples
// hold no constraint state and fire no onSaturated, and an unconditional
// derivation finalizes a kept candidate early, exactly once, on a
// reordered plan as on the FROM-order one.
func TestAggregateLimitAndSaturation(t *testing.T) {
	// With B3.n = 2, p saturates at its second C0 derivation, after q
	// (beyond the limit) has.
	d := reorderDB(t, value.Num(2))
	a := aggregateReordered(t, d, reorderQuery+` LIMIT 1`, exec.Options{})
	if len(a.res.Candidates) != 1 || a.res.Candidates[0].Tuple.String() != "(p)" {
		t.Fatalf("candidates = %v", a.res.Candidates)
	}
	if _, ok := a.res.Candidates[0].Phi.(realfmla.FTrue); !ok {
		t.Errorf("Phi = %s, want true", a.res.Candidates[0].Phi)
	}
	if !slices.Equal(a.sat, []bool{true}) || !slices.Equal(a.early, []string{"0:(p)"}) {
		t.Errorf("sat = %v, onSaturated calls = %v", a.sat, a.early)
	}
	if a.res.Derivations != 8 {
		t.Errorf("Derivations = %d, want every derivation counted (8)", a.res.Derivations)
	}

	// With B3.n a null, p never saturates: it keeps all four disjuncts.
	d = reorderDB(t, value.NullNum(3))
	a = aggregateReordered(t, d, reorderQuery+` LIMIT 1`, exec.Options{})
	if len(a.res.Candidates) != 1 || a.sat[0] || len(a.early) != 0 {
		t.Fatalf("candidates = %v, sat = %v, onSaturated calls = %v", a.res.Candidates, a.sat, a.early)
	}
	if or, ok := a.res.Candidates[0].Phi.(realfmla.FOr); !ok || len(or.Fs) != 4 {
		t.Errorf("Phi = %s, want four disjuncts", a.res.Candidates[0].Phi)
	}
}

// TestAggregateTopKCut: with a race cut of k = 1, a candidate after the
// first saturated one is cut — a zero entry — and a later saturation at a
// lower index moves the cut down over a candidate that had already
// saturated. Every distinct key still makes an entry, and candidates
// before the cut keep every disjunct.
func TestAggregateTopKCut(t *testing.T) {
	// B3.n a null: q saturates at index 1, so r (index 2) is cut on
	// arrival; p stays live and gathers all four disjuncts.
	d := reorderDB(t, value.NullNum(3))
	a := aggregateReordered(t, d, reorderQuery, exec.Options{TopK: 1})
	c := a.res.Candidates
	if len(c) != 3 || c[0].Tuple.String() != "(p)" || c[1].Tuple.String() != "(q)" {
		t.Fatalf("candidates = %v", c)
	}
	if or, ok := c[0].Phi.(realfmla.FOr); !ok || len(or.Fs) != 4 {
		t.Errorf("candidate 0 Phi = %s, want four disjuncts", c[0].Phi)
	}
	if _, ok := c[1].Phi.(realfmla.FTrue); !ok {
		t.Errorf("candidate 1 Phi = %s, want true", c[1].Phi)
	}
	if c[2].Tuple != nil || c[2].Phi != nil {
		t.Errorf("cut candidate 2 = %v", c[2])
	}
	if !slices.Equal(a.sat, []bool{false, true, false}) || !slices.Equal(a.early, []string{"1:(q)"}) {
		t.Errorf("sat = %v, onSaturated calls = %v", a.sat, a.early)
	}

	// B3.n = 2: p saturates after q, at index 0, and the cut moves down
	// over q, which had saturated: q is a zero entry but stays marked.
	d = reorderDB(t, value.Num(2))
	a = aggregateReordered(t, d, reorderQuery, exec.Options{TopK: 1})
	c = a.res.Candidates
	if len(c) != 3 || c[0].Tuple.String() != "(p)" {
		t.Fatalf("candidates = %v", c)
	}
	if _, ok := c[0].Phi.(realfmla.FTrue); !ok {
		t.Errorf("candidate 0 Phi = %s, want true", c[0].Phi)
	}
	for i := 1; i < 3; i++ {
		if c[i].Tuple != nil || c[i].Phi != nil {
			t.Errorf("cut candidate %d = %v", i, c[i])
		}
	}
	if !slices.Equal(a.sat, []bool{true, true, false}) || !slices.Equal(a.early, []string{"1:(q)", "0:(p)"}) {
		t.Errorf("sat = %v, onSaturated calls = %v", a.sat, a.early)
	}
	if a.res.Derivations != 8 {
		t.Errorf("Derivations = %d, want every derivation counted (8)", a.res.Derivations)
	}
}

// TestAggregateInterrupt: Options.Interrupt is polled every 4096
// derivations on both plan shapes — on a reordered plan once per 4096
// during enumeration and once per 4096 during the replay in derivation
// order — and its first error aborts Aggregate with that error and no
// result.
func TestAggregateInterrupt(t *testing.T) {
	const nc, nb = 90, 100 // 9000 derivations: two polls per pass
	s := schema.MustNew(
		schema.MustRelation("A", schema.Column{Name: "k", Type: schema.Base}),
		schema.MustRelation("B",
			schema.Column{Name: "k", Type: schema.Base},
			schema.Column{Name: "t", Type: schema.Base}),
		schema.MustRelation("C", schema.Column{Name: "k", Type: schema.Base}),
	)
	d := db.New(s)
	d.MustInsert("A", value.Base("x"))
	for i := 0; i < nc; i++ {
		d.MustInsert("C", value.Base("x"))
	}
	for i := 0; i < nb; i++ {
		d.MustInsert("B", value.Base("x"), value.Base(fmt.Sprintf("t%d", i%7)))
	}
	const src = `SELECT B.t FROM A A, C C, B B WHERE B.k = A.k AND B.k = C.k`
	re := mustPlan(t, d, src, plan.Options{Reorder: true})
	id := mustPlan(t, d, src, plan.Options{Reorder: false})
	if re.Identity || !id.Identity {
		t.Fatalf("plan orders %v and %v, want a reordered and an identity plan", re.Order, id.Order)
	}
	sentinel := errors.New("interrupted")
	for _, tc := range []struct {
		name  string
		p     *plan.Plan
		polls int // polls of a run that is never interrupted
		trip  int // the poll that returns the sentinel
	}{
		{"identity", id, 2, 1},
		{"identity/last-poll", id, 2, 2},
		{"reordered/enumeration", re, 4, 1},
		{"reordered/replay", re, 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			polls := 0
			count := func() error { polls++; return nil }
			res, err := exec.Collect(tc.p, d, exec.Options{Interrupt: count})
			if err != nil || res.Derivations != nc*nb || len(res.Candidates) != 7 {
				t.Fatalf("uninterrupted run: %v, %v", res, err)
			}
			if polls != tc.polls {
				t.Fatalf("uninterrupted run polled %d times, want %d", polls, tc.polls)
			}
			polls = 0
			trip := func() error {
				polls++
				if polls >= tc.trip {
					return sentinel
				}
				return nil
			}
			res, sat, err := exec.Aggregate(tc.p, d, exec.Options{Interrupt: trip}, nil)
			if !errors.Is(err, sentinel) || res != nil || sat != nil {
				t.Fatalf("Aggregate = (%v, %v, %v), want the sentinel and no result", res, sat, err)
			}
			if polls != tc.trip {
				t.Errorf("polled %d times after tripping at poll %d", polls, tc.trip)
			}
		})
	}
}
