package core

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/db"
	"repro/internal/fo"
	"repro/internal/poly"
	"repro/internal/realfmla"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

// linAtom builds c·z + c0 Rel 0 over n variables.
func linAtom(n int, c []float64, c0 float64, rel realfmla.Rel) realfmla.Formula {
	p := poly.Const(n, c0)
	for i, ci := range c {
		if ci != 0 {
			p = p.Add(poly.Var(n, i).Scale(ci))
		}
	}
	return realfmla.FAtom{A: realfmla.Atom{P: p, Rel: rel}}
}

func pairSchema() *schema.Schema {
	return schema.MustNew(schema.MustRelation("R",
		schema.Column{Name: "x", Type: schema.Num},
		schema.Column{Name: "y", Type: schema.Num}))
}

// TestSelectGreaterHalf: the paper's first motivating example — the query
// σ_{A>B}(R) on a single tuple (⊤0, ⊤1) has measure exactly 1/2.
func TestSelectGreaterHalf(t *testing.T) {
	d := db.New(pairSchema())
	d.MustInsert("R", value.NullNum(0), value.NullNum(1))
	q := fo.MustParseQuery(`q() := exists x:num, y:num . (R(x, y) and x > y)`)

	e := New(Options{})
	res, err := e.Measure(q, d, nil, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Errorf("expected an exact method, got %s", res.Method)
	}
	if res.Rat == nil || res.Rat.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("μ = %v (%g), want exactly 1/2", res.Rat, res.Value)
	}
	if res.K != 2 || res.RelevantK != 2 {
		t.Errorf("K=%d RelevantK=%d", res.K, res.RelevantK)
	}
}

// TestIntroExampleConstraint reproduces the introduction's constraint (1):
// (z1 ≥ 0) ∧ (z0 ≥ 8) ∧ (0.7·z1 ≥ z0) has
// ν = (π/2 − arctan(10/7)) / 2π ≈ 0.097, which is ≈ 0.388 of the positive
// quadrant.
func TestIntroExampleConstraint(t *testing.T) {
	n := 2 // z0 = α (competition price), z1 = α' (rrp of id2)
	phi := realfmla.And(
		linAtom(n, []float64{0, -1}, 0, realfmla.LE),   // -z1 ≤ 0
		linAtom(n, []float64{-1, 0}, 8, realfmla.LE),   // 8 - z0 ≤ 0
		linAtom(n, []float64{1, -0.7}, 0, realfmla.LE), // z0 - 0.7z1 ≤ 0
	)
	e := New(Options{})
	res, err := e.MeasureFormula(phi, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := (math.Pi/2 - math.Atan(10.0/7)) / (2 * math.Pi)
	if !res.Exact || res.Method != MethodExactSector {
		t.Errorf("method = %s, want exact sector", res.Method)
	}
	if math.Abs(res.Value-want) > 1e-9 {
		t.Errorf("ν = %.6f, want %.6f", res.Value, want)
	}
	if q := res.Value * 4; math.Abs(q-0.38855) > 1e-3 {
		t.Errorf("fraction of positive quadrant = %.5f, want ≈0.388", q)
	}
}

// TestIntroExampleEndToEnd runs the introduction's full query over the
// introduction's database. Note: the paper's query text uses r·d ≤ p while
// its constraint (1) and numeric values use 0.7·α' ≥ α; the two disagree
// (see EXPERIMENTS.md). With the query as printed, the derived constraint
// is α ≥ 8 ∧ 0.7·α' ≤ α ∧ α' ≥ 0, whose measure is arctan(10/7)/2π —
// exactly the complementary sector of the positive quadrant: both measures
// sum to 1/4.
func TestIntroExampleEndToEnd(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("P",
			schema.Column{Name: "id", Type: schema.Base},
			schema.Column{Name: "seg", Type: schema.Base},
			schema.Column{Name: "rrp", Type: schema.Num},
			schema.Column{Name: "dis", Type: schema.Num}),
		schema.MustRelation("C",
			schema.Column{Name: "id", Type: schema.Base},
			schema.Column{Name: "seg", Type: schema.Base},
			schema.Column{Name: "p", Type: schema.Num}),
		schema.MustRelation("E",
			schema.Column{Name: "id", Type: schema.Base},
			schema.Column{Name: "seg", Type: schema.Base}),
	)
	d := db.New(s)
	d.MustInsert("C", value.Base("c"), value.Base("s"), value.NullNum(0)) // ⊤0 = α
	d.MustInsert("P", value.Base("id1"), value.Base("s"), value.Num(10), value.Num(0.8))
	d.MustInsert("P", value.Base("id2"), value.Base("s"), value.NullNum(1), value.Num(0.7)) // ⊤1 = α'
	d.MustInsert("E", value.NullBase(0), value.Base("s"))

	q := fo.MustParseQuery(`
	q(s:base) := forall i:base, r:num, dd:num, i2:base, p:num .
	    (P(i, s, r, dd) and not E(i, s) and C(i2, s, p))
	    -> (r * dd <= p and r >= 0 and dd >= 0 and p >= 0)
	`)
	// The fully expanded φ contains vacuous nonlinear branches (quantified
	// variables substituted into r·dd), so the engine falls back to the
	// AFPRAS; check the sampled value against the analytic sector.
	e := New(Options{Seed: 4})
	res, err := e.Measure(q, d, []value.Value{value.Base("s")}, 0.03, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Atan(10.0/7) / (2 * math.Pi) // ≈ 0.1528
	if math.Abs(res.Value-want) > 0.035 {
		t.Errorf("μ = %.4f, want ≈ %.4f", res.Value, want)
	}
	// The derived constraint, built directly as in the paper's Section 5
	// walk-through, is exactly the complementary sector: a ≥ 8 ∧
	// 0.7·a' ≤ a ∧ a' ≥ 0.
	phi := realfmla.And(
		linAtom(2, []float64{-1, 0}, 8, realfmla.LE),   // 8 - α ≤ 0
		linAtom(2, []float64{-1, 0.7}, 0, realfmla.LE), // 0.7α' - α ≤ 0
		linAtom(2, []float64{0, -1}, 0, realfmla.LE),   // -α' ≤ 0
	)
	exact, err := e.MeasureFormula(phi, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact || math.Abs(exact.Value-want) > 1e-9 {
		t.Errorf("derived constraint: %.6f via %s, want %.6f exact", exact.Value, exact.Method, want)
	}
	// Together with the paper's (1) the two sectors tile the positive
	// quadrant: 0.0972 + 0.1528 = 1/4.
	one := (math.Pi/2 - math.Atan(10.0/7)) / (2 * math.Pi)
	if math.Abs(one+want-0.25) > 1e-12 {
		t.Errorf("sectors do not tile the quadrant: %g + %g", one, want)
	}
}

func mustPhi(t *testing.T, q *fo.Query, d *db.Database, args []value.Value) realfmla.Formula {
	t.Helper()
	res, err := translate.Query(q, d, args)
	if err != nil {
		t.Fatal(err)
	}
	return res.Phi
}

// TestArctanFamily reproduces Prop 6.1: for q = ∃x,y R(x,y) ∧ x ≥ 0 ∧
// y ≤ α·x on R = {(⊤,⊤')}, μ = arctan(α)/2π + 1/4. (The paper prints
// +1/2; the region {x ≥ 0, y ≤ αx} subtends [−π/2, arctan α], giving +1/4
// — at α = 0 it is a quadrant. The rationality claim — μ ∈ ℚ iff
// α ∈ {0, ±1} — is unaffected; see EXPERIMENTS.md.)
func TestArctanFamily(t *testing.T) {
	e := New(Options{})
	for _, alpha := range []float64{0, 1, -1, 2, 0.5, -3} {
		d := db.New(pairSchema())
		d.MustInsert("R", value.NullNum(0), value.NullNum(1))
		q := &fo.Query{
			Name: "q",
			Body: fo.Exists{Var: "x", Sort: fo.SortNum, Body: fo.Exists{Var: "y", Sort: fo.SortNum,
				Body: fo.AndAll(
					fo.Atom{Rel: "R", Args: []fo.Term{fo.Var{Name: "x"}, fo.Var{Name: "y"}}},
					fo.Cmp{Op: fo.Ge, L: fo.Var{Name: "x"}, R: fo.NumConst{Value: 0}},
					fo.Cmp{Op: fo.Le, L: fo.Var{Name: "y"}, R: fo.Mul{L: fo.NumConst{Value: alpha}, R: fo.Var{Name: "x"}}},
				)}},
		}
		res, err := e.Measure(q, d, nil, 0.05, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Atan(alpha)/(2*math.Pi) + 0.25
		if !res.Exact {
			t.Errorf("α=%g: method %s not exact", alpha, res.Method)
		}
		if math.Abs(res.Value-want) > 1e-9 {
			t.Errorf("α=%g: μ = %.6f, want %.6f", alpha, res.Value, want)
		}
	}
}

// TestExactOrderAgainstSampling cross-validates the two independent
// algorithms on order formulas in 3–4 variables.
func TestExactOrderAgainstSampling(t *testing.T) {
	formulas := []realfmla.Formula{
		// z0 < z1 < z2: 1/6.
		realfmla.And(
			linAtom(3, []float64{1, -1, 0}, 0, realfmla.LT),
			linAtom(3, []float64{0, 1, -1}, 0, realfmla.LT)),
		// z0 > 0 ∨ z1 > 0: 3/4.
		realfmla.Or(
			linAtom(2, []float64{-1, 0}, 0, realfmla.LT),
			linAtom(2, []float64{0, -1}, 0, realfmla.LT)),
		// (z0 < z1) xor-ish mix with negation.
		realfmla.FNot{F: realfmla.And(
			linAtom(4, []float64{1, -1, 0, 0}, 0, realfmla.LT),
			linAtom(4, []float64{0, 0, 1, -1}, 3, realfmla.LT))},
	}
	exactEngine := New(Options{Seed: 5})
	for i, phi := range formulas {
		ex, ok, err := exactEngine.exactOrder(newKernel(phi))
		if err != nil || !ok {
			t.Fatalf("formula %d: exact order failed: ok=%v err=%v", i, ok, err)
		}
		ap, err := exactEngine.AdditiveApprox(phi, 0.02, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ex.Value-ap.Value) > 0.03 {
			t.Errorf("formula %d: exact %.4f vs sampled %.4f", i, ex.Value, ap.Value)
		}
	}
}

func phiReduce(f realfmla.Formula) realfmla.Formula {
	g, _ := realfmla.Reduce(f)
	return g
}

// orderChain is z0 < z1 < … < z(n-1) over n variables.
func orderChain(n int) realfmla.Formula {
	atoms := make([]realfmla.Formula, n-1)
	for i := range atoms {
		c := make([]float64, n)
		c[i], c[i+1] = 1, -1
		atoms[i] = linAtom(n, c, 0, realfmla.LT)
	}
	return realfmla.And(atoms...)
}

func TestExactOrderKnownValues(t *testing.T) {
	e := New(Options{})
	cases := []struct {
		phi  realfmla.Formula
		want *big.Rat
	}{
		// z0 < z1: 1/2.
		{linAtom(2, []float64{1, -1}, 0, realfmla.LT), big.NewRat(1, 2)},
		// z0 < z1 < z2: 1/6.
		{realfmla.And(
			linAtom(3, []float64{1, -1, 0}, 0, realfmla.LT),
			linAtom(3, []float64{0, 1, -1}, 0, realfmla.LT)), big.NewRat(1, 6)},
		// z0 > 5 (asymptotically z0 > 0): 1/2.
		{linAtom(1, []float64{-1}, 5, realfmla.LT), big.NewRat(1, 2)},
		// z0 > 0 ∧ z1 < 0: 1/4.
		{realfmla.And(
			linAtom(2, []float64{-1, 0}, 0, realfmla.LT),
			linAtom(2, []float64{0, 1}, 0, realfmla.LT)), big.NewRat(1, 4)},
		// z0 = z1: measure zero.
		{linAtom(2, []float64{1, -1}, 0, realfmla.EQ), big.NewRat(0, 1)},
		// z0 ≠ z1: full measure.
		{linAtom(2, []float64{1, -1}, 0, realfmla.NE), big.NewRat(1, 1)},
		// z0 < z1 < … < z6: 1/7!. 2⁷·7! = 645 120 cells, within the
		// 1 000 000-cell budget.
		{orderChain(7), big.NewRat(1, 5040)},
	}
	for i, c := range cases {
		res, ok, err := e.exactOrder(newKernel(c.phi))
		if err != nil || !ok {
			t.Fatalf("case %d: ok=%v err=%v", i, ok, err)
		}
		if res.Rat.Cmp(c.want) != 0 {
			t.Errorf("case %d: ν = %v, want %v", i, res.Rat, c.want)
		}
	}
}

func TestExactOrderRejectsNonOrder(t *testing.T) {
	e := New(Options{})
	// z0 + z1 < 0 is linear but not an order atom.
	if _, ok, _ := e.exactOrder(newKernel(linAtom(2, []float64{1, 1}, 0, realfmla.LT))); ok {
		t.Error("sum atom accepted by order algorithm")
	}
	// Quadratic atom.
	q := realfmla.FAtom{A: realfmla.Atom{P: poly.Var(1, 0).Mul(poly.Var(1, 0)), Rel: realfmla.LT}}
	if _, ok, _ := e.exactOrder(newKernel(q)); ok {
		t.Error("quadratic atom accepted")
	}
	// Cell budget: an 8-variable chain has 2⁸·8! = 10 321 920 cells.
	if _, ok, _ := e.exactOrder(newKernel(orderChain(8))); ok {
		t.Error("cell budget ignored")
	}
}

// TestFPRASAgainstExact cross-validates the Section 7 union-of-cones FPRAS
// against the exact sector values on 2D linear formulas with overlapping
// disjuncts.
func TestFPRASAgainstExact(t *testing.T) {
	e := New(Options{Seed: 17})
	// (z0 > 0) ∨ (z1 > 2·z0): two overlapping halfplanes.
	phi := realfmla.Or(
		linAtom(2, []float64{-1, 0}, 0, realfmla.LT),
		linAtom(2, []float64{2, -1}, 0, realfmla.LT),
	)
	exact, ok := e.exactSector(phiReduce(phi))
	if !ok {
		t.Fatal("sector method refused a 2D linear formula")
	}
	res, err := e.FPRAS(phi, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodFPRAS {
		t.Errorf("method = %s", res.Method)
	}
	if math.Abs(res.Value-exact.Value) > 0.08*exact.Value+0.02 {
		t.Errorf("FPRAS %.4f vs exact %.4f", res.Value, exact.Value)
	}
}

func TestFPRAS3DConeAgainstSampling(t *testing.T) {
	e := New(Options{Seed: 23})
	// Octant z0>0 ∧ z1>0 ∧ z2>0 (measure 1/8) ∪ opposite octant: 1/4.
	oct := func(sign float64) realfmla.Formula {
		return realfmla.And(
			linAtom(3, []float64{-sign, 0, 0}, 0, realfmla.LT),
			linAtom(3, []float64{0, -sign, 0}, 0, realfmla.LT),
			linAtom(3, []float64{0, 0, -sign}, 0, realfmla.LT))
	}
	phi := realfmla.Or(oct(1), oct(-1))
	res, err := e.FPRAS(phi, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-0.25) > 0.04 {
		t.Errorf("FPRAS = %.4f, want 0.25", res.Value)
	}
}

func TestFPRASRejectsNonlinear(t *testing.T) {
	e := New(Options{})
	q := realfmla.FAtom{A: realfmla.Atom{P: poly.Var(1, 0).Mul(poly.Var(1, 0)).Sub(poly.Const(1, 1)), Rel: realfmla.LT}}
	if _, err := e.FPRAS(q, 0.1); err == nil {
		t.Error("nonlinear formula accepted by FPRAS")
	}
	if _, err := e.FPRAS(realfmla.FTrue{}, 0); err == nil {
		t.Error("eps = 0 accepted")
	}
}

// TestAdditiveApproxNonlinear exercises the AFPRAS on a genuinely
// nonlinear FO(+,·,<) constraint: z0·z1 > 0 holds on half the directions.
func TestAdditiveApproxNonlinear(t *testing.T) {
	e := New(Options{Seed: 3})
	phi := realfmla.FAtom{A: realfmla.Atom{P: poly.Var(2, 0).Mul(poly.Var(2, 1)), Rel: realfmla.GT}}
	res, err := e.AdditiveApprox(phi, 0.02, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-0.5) > 0.03 {
		t.Errorf("ν(z0·z1 > 0) = %.4f, want 0.5", res.Value)
	}
	// z0² + z1² > 0 holds almost everywhere.
	sq := func(i int) poly.Poly { return poly.Var(2, i).Mul(poly.Var(2, i)) }
	phi2 := realfmla.FAtom{A: realfmla.Atom{P: sq(0).Add(sq(1)), Rel: realfmla.GT}}
	res2, err := e.AdditiveApprox(phi2, 0.02, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value != 1 {
		t.Errorf("ν(z0²+z1² > 0) = %.4f, want 1", res2.Value)
	}
}

// TestDirectMatchesFormulaPath: the two AFPRAS implementations (translated
// formula vs direct asymptotic evaluation) agree within statistical error.
func TestDirectMatchesFormulaPath(t *testing.T) {
	d := db.New(pairSchema())
	d.MustInsert("R", value.NullNum(0), value.NullNum(1))
	d.MustInsert("R", value.Num(1), value.NullNum(2))
	queries := []string{
		`q() := exists x:num, y:num . (R(x, y) and x > y)`,
		`q() := forall x:num, y:num . (R(x, y) -> x + y > 0)`,
		`q() := exists x:num, y:num . (R(x, y) and x * y > 1)`,
	}
	for _, src := range queries {
		q := fo.MustParseQuery(src)
		phi := mustPhi(t, q, d, nil)
		e1 := New(Options{Seed: 101})
		e2 := New(Options{Seed: 202})
		r1, err := e1.AdditiveApprox(phi, 0.02, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.AdditiveApproxDirect(q, d, nil, 0.02, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r1.Value-r2.Value) > 0.05 {
			t.Errorf("%s: formula path %.4f vs direct path %.4f", src, r1.Value, r2.Value)
		}
	}
}

// TestNoNumericNullsIsZeroOne: with no numerical nulls the measure is 0 or
// 1, matching the zero-one law of [27] that the framework generalizes.
func TestNoNumericNullsIsZeroOne(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("T",
		schema.Column{Name: "a", Type: schema.Base},
		schema.Column{Name: "x", Type: schema.Num}))
	d := db.New(s)
	d.MustInsert("T", value.NullBase(0), value.Num(3))
	d.MustInsert("T", value.Base("a"), value.Num(5))

	e := New(Options{})
	// ∃v. T(v, 3) ∧ v ≠ "a": true under every bijective valuation (⊥0).
	q := fo.MustParseQuery(`q() := exists v:base . (T(v, 3) and not (v == "a"))`)
	res, err := e.Measure(q, d, nil, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodTrivial || res.Value != 1 {
		t.Errorf("μ = %g via %s, want 1 via trivial", res.Value, res.Method)
	}
	// ∃v. T(v, 3) ∧ v = "a": almost surely false.
	q2 := fo.MustParseQuery(`q() := exists v:base . (T(v, 3) and v == "a")`)
	res2, err := e.Measure(q2, d, nil, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value != 0 {
		t.Errorf("μ = %g, want 0", res2.Value)
	}
}

// TestMuRadiusConvergence demonstrates the well-definedness of the limit
// (Section 5): μ_r approaches ν(φ) as r grows for the introduction
// constraint.
func TestMuRadiusConvergence(t *testing.T) {
	phi := realfmla.And(
		linAtom(2, []float64{0, -1}, 0, realfmla.LE),
		linAtom(2, []float64{-1, 0}, 8, realfmla.LE),
		linAtom(2, []float64{1, -0.7}, 0, realfmla.LE),
	)
	e := New(Options{Seed: 7})
	limit := (math.Pi/2 - math.Atan(10.0/7)) / (2 * math.Pi)
	var prevErr float64 = math.Inf(1)
	improving := 0
	for _, r := range []float64{10, 40, 160, 640} {
		mu, err := e.MuAtRadius(phi, r, 200000)
		if err != nil {
			t.Fatal(err)
		}
		gap := math.Abs(mu - limit)
		if gap < prevErr+0.01 {
			improving++
		}
		prevErr = gap
	}
	if improving < 3 {
		t.Error("μ_r does not approach the limit as r grows")
	}
	final, _ := e.MuAtRadius(phi, 640, 200000)
	if math.Abs(final-limit) > 0.01 {
		t.Errorf("μ_640 = %.4f, want ≈ %.4f", final, limit)
	}
}

func TestParameterValidation(t *testing.T) {
	e := New(Options{})
	phi := linAtom(1, []float64{1}, 0, realfmla.LT)
	if _, err := e.AdditiveApprox(phi, 0, 0.1); err == nil {
		t.Error("eps = 0 accepted")
	}
	if _, err := e.AdditiveApprox(phi, 0.1, 0); err == nil {
		t.Error("delta = 0 accepted")
	}
	if _, err := e.MuAtRadius(phi, -1, 100); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := e.MuAtRadius(phi, 1, 0); err == nil {
		t.Error("zero samples accepted")
	}
}

// TestExactRaySingleVariableNonlinear: with one relevant variable the
// engine is exact for arbitrary polynomial constraints — the common
// one-null-per-candidate case never needs sampling.
func TestExactRaySingleVariableNonlinear(t *testing.T) {
	e := New(Options{})
	z := poly.Var(1, 0)
	cases := []struct {
		phi  realfmla.Formula
		want float64
	}{
		// z² > 1: true along both rays → 1.
		{realfmla.FAtom{A: realfmla.Atom{P: poly.Const(1, 1).Sub(z.Mul(z)), Rel: realfmla.LT}}, 1},
		// z³ > 5: positive ray only → 1/2.
		{realfmla.FAtom{A: realfmla.Atom{P: poly.Const(1, 5).Sub(z.Mul(z).Mul(z)), Rel: realfmla.LT}}, 0.5},
		// z² < -1: never → 0.
		{realfmla.FAtom{A: realfmla.Atom{P: z.Mul(z).Add(poly.Const(1, 1)), Rel: realfmla.LT}}, 0},
	}
	for i, c := range cases {
		res, err := e.MeasureFormula(c.phi, 0.1, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Method != MethodExactSector {
			t.Errorf("case %d: method %s exact=%v, want exact sector", i, res.Method, res.Exact)
		}
		if res.Value != c.want {
			t.Errorf("case %d: ν = %g, want %g", i, res.Value, c.want)
		}
	}
}

func TestFPRASLinearOnly(t *testing.T) {
	// The FPRAS on a 3D linear formula where no exact method applies.
	oct := realfmla.And(
		linAtom(3, []float64{-1, -1, 0}, 0, realfmla.LT), // z0 + z1 > 0: not an order atom
		linAtom(3, []float64{0, -1, -1}, 0, realfmla.LT),
	)
	e := New(Options{Seed: 5})
	res, err := e.FPRAS(oct, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodFPRAS {
		t.Errorf("method = %s, want fpras", res.Method)
	}
	// Cross-check against the AFPRAS.
	e2 := New(Options{Seed: 6})
	ref, err := e2.AdditiveApprox(oct, 0.02, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-ref.Value) > 0.1*ref.Value+0.04 {
		t.Errorf("FPRAS %.4f vs AFPRAS %.4f", res.Value, ref.Value)
	}
	// Nonlinear input is outside the CQ(+,<) regime.
	q := realfmla.FAtom{A: realfmla.Atom{P: poly.Var(2, 0).Mul(poly.Var(2, 1)), Rel: realfmla.GT}}
	if _, err := e.FPRAS(q, 0.05); err == nil {
		t.Error("FPRAS accepted a nonlinear formula")
	}
}

func TestPaperSampleCountOption(t *testing.T) {
	e := New(Options{PaperSampleCount: true})
	phi := linAtom(1, []float64{1}, 0, realfmla.LT)
	res, err := e.AdditiveApprox(phi, 0.1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 100 {
		t.Errorf("paper sample count = %d, want 100 = ⌈ε⁻²⌉", res.Samples)
	}
}
