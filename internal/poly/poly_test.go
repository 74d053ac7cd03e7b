package poly

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randPoly generates a small random polynomial in n variables with integer
// coefficients (so that ring-law checks are exact).
func randPoly(r *rand.Rand, n int) Poly {
	terms := r.Intn(4)
	p := Zero(n)
	for i := 0; i < terms; i++ {
		mono := Const(n, float64(r.Intn(11)-5))
		for j := 0; j < n; j++ {
			for e := r.Intn(3); e > 0; e-- {
				mono = mono.Mul(Var(n, j))
			}
		}
		p = p.Add(mono)
	}
	return p
}

func randPoint(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(r.Intn(9) - 4)
	}
	return x
}

func TestConstructorsAndEval(t *testing.T) {
	p := Var(3, 1)                 // z1
	q := p.Mul(p).Add(Const(3, 2)) // z1² + 2
	if got := q.Eval([]float64{0, 3, 0}); got != 11 {
		t.Errorf("Eval = %g, want 11", got)
	}
	if q.Degree() != 2 {
		t.Errorf("Degree = %d", q.Degree())
	}
	if Zero(3).Degree() != -1 {
		t.Error("Degree(0) != -1")
	}
	if !Const(2, 0).IsZero() {
		t.Error("Const 0 not zero")
	}
}

func TestNormalization(t *testing.T) {
	// z0 + z0 - 2·z0 normalizes to 0.
	p := Var(2, 0).Add(Var(2, 0)).Sub(Var(2, 0).Scale(2))
	if !p.IsZero() {
		t.Errorf("cancellation failed: %s", p)
	}
	// equal monomials merge.
	q := Var(2, 0).Mul(Var(2, 1)).Add(Var(2, 1).Mul(Var(2, 0)))
	if len(q.Terms) != 1 || q.Terms[0].Coef != 2 {
		t.Errorf("merge failed: %s", q)
	}
}

func TestRingLaws(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(3)
		p, q, s := randPoly(r, n), randPoly(r, n), randPoly(r, n)
		if !p.Add(q).Equal(q.Add(p)) {
			t.Fatalf("Add not commutative: %s vs %s", p, q)
		}
		if !p.Mul(q).Equal(q.Mul(p)) {
			t.Fatalf("Mul not commutative: %s vs %s", p, q)
		}
		if !p.Add(q).Add(s).Equal(p.Add(q.Add(s))) {
			t.Fatal("Add not associative")
		}
		if !p.Mul(q.Add(s)).Equal(p.Mul(q).Add(p.Mul(s))) {
			t.Fatal("Mul does not distribute over Add")
		}
		if !p.Sub(p).IsZero() {
			t.Fatal("p - p != 0")
		}
	}
}

func TestEvalHomomorphism(t *testing.T) {
	// Eval commutes with the ring operations.
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(3)
		p, q := randPoly(r, n), randPoly(r, n)
		x := randPoint(r, n)
		if p.Add(q).Eval(x) != p.Eval(x)+q.Eval(x) {
			t.Fatal("Eval not additive")
		}
		if p.Mul(q).Eval(x) != p.Eval(x)*q.Eval(x) {
			t.Fatal("Eval not multiplicative")
		}
	}
}

func TestLinearForm(t *testing.T) {
	// 2·z0 - 3·z1 + 5
	p := Var(2, 0).Scale(2).Add(Var(2, 1).Scale(-3)).Add(Const(2, 5))
	c, c0, ok := p.LinearForm()
	if !ok || c0 != 5 || !reflect.DeepEqual(c, []float64{2, -3}) {
		t.Errorf("LinearForm = %v, %v, %v", c, c0, ok)
	}
	if _, _, ok := Var(2, 0).Mul(Var(2, 1)).LinearForm(); ok {
		t.Error("quadratic classified linear")
	}
	if !p.IsLinear() {
		t.Error("linear poly misclassified")
	}
}

func TestDropConstantAndHomogenize(t *testing.T) {
	p := Var(2, 0).Scale(2).Add(Const(2, 5))
	if got := p.DropConstant(); !got.Equal(Var(2, 0).Scale(2)) {
		t.Errorf("DropConstant = %s", got)
	}
	// z0² + z0 + 1 homogenizes to z0².
	q := Var(1, 0).Mul(Var(1, 0)).Add(Var(1, 0)).Add(Const(1, 1))
	if got := q.Homogenize(); !got.Equal(Var(1, 0).Mul(Var(1, 0))) {
		t.Errorf("Homogenize = %s", got)
	}
}

func TestSubstituteRayMatchesEval(t *testing.T) {
	// p(k·a) as a polynomial in k must evaluate like p at the scaled point.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(3)
		p := randPoly(r, n)
		a := randPoint(r, n)
		u := p.SubstituteRay(a)
		for _, k := range []float64{0, 1, 2, 5} {
			scaled := make([]float64, n)
			for j := range scaled {
				scaled[j] = k * a[j]
			}
			if got, want := u.Eval(k), p.Eval(scaled); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("SubstituteRay mismatch at k=%g: %g vs %g (p=%s a=%v)", k, got, want, p, a)
			}
		}
	}
}

func TestUniArithmetic(t *testing.T) {
	u := Uni{1, 2}    // 1 + 2k
	v := Uni{0, 0, 3} // 3k²
	if got := u.Add(v); !reflect.DeepEqual(got, Uni{1, 2, 3}) {
		t.Errorf("Add = %v", got)
	}
	if got := u.Mul(v); !reflect.DeepEqual(got, Uni{0, 0, 3, 6}) {
		t.Errorf("Mul = %v", got)
	}
	if got := u.Sub(u); len(got) != 0 {
		t.Errorf("u-u = %v", got)
	}
	if u.Eval(2) != 5 {
		t.Errorf("Eval = %g", u.Eval(2))
	}
	if v.Degree() != 2 || (Uni{}).Degree() != -1 {
		t.Error("Degree wrong")
	}
}

func TestUniTrim(t *testing.T) {
	u := Uni{1, 0, 0}.Add(Uni{})
	if len(u) != 1 {
		t.Errorf("trailing zeros kept: %v", u)
	}
}

func TestAsymptoticSign(t *testing.T) {
	cases := []struct {
		u    Uni
		want int
	}{
		{Uni{}, 0},
		{Uni{5}, 1},
		{Uni{-5}, -1},
		{Uni{100, -1}, -1},   // eventually negative
		{Uni{-100, 0, 2}, 1}, // eventually positive
		{Uni{3, 1e-15}, 1},   // tiny leading coeff treated as zero → constant 3
	}
	for _, c := range cases {
		if got := c.u.AsymptoticSign(1e-12); got != c.want {
			t.Errorf("AsymptoticSign(%v) = %d, want %d", c.u, got, c.want)
		}
	}
}

func TestAsymptoticSignMatchesLargeK(t *testing.T) {
	// Property: for random integer polys the asymptotic sign equals the sign
	// at a large k.
	f := func(coeffs []int8) bool {
		u := make(Uni, len(coeffs))
		for i, c := range coeffs {
			u[i] = float64(c)
		}
		u = u.trim()
		s := u.AsymptoticSign(0)
		v := u.Eval(1e6)
		switch {
		case s > 0:
			return v > 0
		case s < 0:
			return v < 0
		default:
			return v == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	Var(2, 0).Add(Var(3, 0))
}

// TestRenameVars: variable vars[j] becomes j in a ring of len(vars)
// variables, and a used variable missing from vars panics.
func TestRenameVars(t *testing.T) {
	p := Var(5000, 17).Mul(Var(5000, 4093)).Mul(Var(5000, 4093)).Add(Var(5000, 9).Scale(3)).Add(Const(5000, 2))
	want := Var(3, 1).Mul(Var(3, 2)).Mul(Var(3, 2)).Add(Var(3, 0).Scale(3)).Add(Const(3, 2))
	if got := p.RenameVars([]int{9, 17, 4093}); !got.Equal(want) {
		t.Fatalf("RenameVars = %s, want %s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic when vars drops a used variable")
		}
	}()
	p.RenameVars([]int{9, 4093})
}

// TestMapVars: a strictly increasing renaming leaves the polynomial in
// normal form (re-normalizing changes nothing), and RenameVars over the
// same list is its inverse.
func TestMapVars(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p := randPoly(r, 4)
		ids := make([]int, 4)
		prev := -1
		for i := range ids {
			prev += 1 + r.Intn(50)
			ids[i] = prev
		}
		q := p.MapVars(ids)
		if q.N != ids[3]+1 {
			t.Fatalf("N = %d, want %d", q.N, ids[3]+1)
		}
		if renorm := q.Add(Zero(q.N)); !q.Equal(renorm) {
			t.Fatalf("MapVars(%s, %v) = %s: not normalized (%s)", p, ids, q, renorm)
		}
		if back := q.RenameVars(ids); !back.Equal(p) {
			t.Fatalf("RenameVars(MapVars(%s)) = %s", p, back)
		}
	}
}
