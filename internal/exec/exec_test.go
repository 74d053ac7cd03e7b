package exec_test

import (
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
	// On a streaming (Identity) plan the ordinal vector is not needed —
	// emission order is derivation order — and stays nil.
	if derivs[2].Rows != nil {
		t.Errorf("identity plan populated Rows: %v", derivs[2].Rows)
	}
}

// TestRunRestoresOrderAfterReorder: a reordered plan still emits in the
// original FROM-clause derivation order.
func TestRunRestoresOrderAfterReorder(t *testing.T) {
	s := schema.MustNew(
		schema.MustRelation("A", schema.Column{Name: "k", Type: schema.Base}),
		schema.MustRelation("B", schema.Column{Name: "k", Type: schema.Base}),
		schema.MustRelation("C", schema.Column{Name: "k", Type: schema.Base}),
	)
	d := db.New(s)
	for _, v := range []string{"x", "y"} {
		d.MustInsert("A", value.Base(v))
		d.MustInsert("B", value.Base(v))
		d.MustInsert("C", value.Base(v))
	}
	// FROM order has the A×C cartesian first; B joins both.
	p := mustPlan(t, d, `SELECT A.k FROM A A, C C, B B WHERE B.k = A.k AND B.k = C.k`, plan.Options{Reorder: true})
	if p.Identity {
		t.Fatal("expected a reordered plan")
	}
	var got [][]int
	if err := exec.Run(p, d, exec.Options{}, func(dv *exec.Deriv) error {
		got = append(got, dv.Rows)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 0, 0}, {1, 1, 1}}
	if len(got) != len(want) {
		t.Fatalf("derivations = %v, want %v", got, want)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("derivations = %v, want %v (derivation order not restored)", got, want)
			}
		}
	}
}

// TestAggregatorLimitAndSaturation: beyond-limit tuples hold no
// constraint state, and an unconditional derivation finalizes a
// candidate early through the hook.
func TestAggregatorLimitAndSaturation(t *testing.T) {
	var early []int
	ag := exec.NewAggregator(1, 0, func(idx int, c exec.Candidate) {
		early = append(early, idx)
		if _, ok := c.Phi.(realfmla.FTrue); !ok {
			t.Errorf("saturated Phi = %s", c.Phi)
		}
	})
	atom := realfmla.FAtom{}
	tupA := value.Tuple{value.Base("a")}
	tupB := value.Tuple{value.Base("b")}
	ag.Add(&exec.Deriv{Tuple: tupA, Conj: []realfmla.Formula{atom}})
	ag.Add(&exec.Deriv{Tuple: tupB, Conj: nil}) // beyond limit: ignored
	ag.Add(&exec.Deriv{Tuple: tupA, Conj: nil}) // saturates candidate 0
	ag.Add(&exec.Deriv{Tuple: tupA, Conj: []realfmla.Formula{atom}})
	cands := ag.Finish()
	if len(cands) != 1 || !cands[0].Tuple.Equal(tupA) {
		t.Fatalf("candidates = %v", cands)
	}
	if _, ok := cands[0].Phi.(realfmla.FTrue); !ok {
		t.Errorf("Phi = %s, want true", cands[0].Phi)
	}
	if len(early) != 1 || early[0] != 0 || !ag.Saturated(0) {
		t.Errorf("early dispatch = %v", early)
	}
}

// TestAggregatorTopKCut: with a race cut of k = 1, a candidate after the
// first saturated one is cut — a zero entry — and a later saturation at a
// lower index moves the cut down over a candidate that had already
// saturated. Every distinct key still makes an entry.
func TestAggregatorTopKCut(t *testing.T) {
	ag := exec.NewAggregator(0, 1, nil)
	atom := realfmla.FAtom{}
	tup := func(s string) value.Tuple { return value.Tuple{value.Base(s)} }
	ag.Add(&exec.Deriv{Tuple: tup("a"), Conj: []realfmla.Formula{atom}})
	ag.Add(&exec.Deriv{Tuple: tup("b"), Conj: nil})                      // saturates 1: cut from 2 on
	ag.Add(&exec.Deriv{Tuple: tup("c"), Conj: []realfmla.Formula{atom}}) // cut on arrival
	ag.Add(&exec.Deriv{Tuple: tup("a"), Conj: []realfmla.Formula{atom}})
	cands := ag.Finish()
	if len(cands) != 3 || !cands[0].Tuple.Equal(tup("a")) || !cands[1].Tuple.Equal(tup("b")) {
		t.Fatalf("candidates = %v", cands)
	}
	if or, ok := cands[0].Phi.(realfmla.FOr); !ok || len(or.Fs) != 2 {
		t.Errorf("candidate 0 Phi = %s, want both disjuncts", cands[0].Phi)
	}
	if cands[2].Tuple != nil || cands[2].Phi != nil {
		t.Errorf("cut candidate 2 = %v", cands[2])
	}
	ag.Add(&exec.Deriv{Tuple: tup("a"), Conj: nil}) // saturates 0: cut from 1 on
	cands = ag.Finish()
	if len(cands) != 3 || cands[1].Tuple != nil || cands[1].Phi != nil {
		t.Fatalf("after the cut moved: %v", cands)
	}
	if _, ok := cands[0].Phi.(realfmla.FTrue); !ok {
		t.Errorf("candidate 0 Phi = %s, want true", cands[0].Phi)
	}
}
