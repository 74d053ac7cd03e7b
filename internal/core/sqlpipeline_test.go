package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/realfmla"
	"repro/internal/sqlfront"
)

// TestMeasureSQLMatchesBatch: the fused pipeline is bit-identical to
// evaluate-then-MeasureBatch — same candidates, same measures — for every
// planner toggle combination, despite overlapping measurement with
// enumeration.
func TestMeasureSQLMatchesBatch(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 5, Products: 120, Orders: 90, Market: 30, Segments: 10,
		NullRate: 0.3, MarketNullRate: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(`SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 8`)

	// NoAdaptive: this test pins the fixed-budget contract — first-k
	// distinct tuples, every candidate measured like MeasureBatch. The
	// adaptive LIMIT-k race has its own parity suite (adaptive_test.go).
	for _, opts := range []Options{
		{Seed: 9, NoAdaptive: true},
		{Seed: 9, NoAdaptive: true, DisableExact: true, ForceSampling: true, PaperSampleCount: true},
	} {
		ev, err := New(opts).EvaluateSQL(q, d)
		if err != nil {
			t.Fatal(err)
		}
		ref, refErr := sqlfront.Evaluate(q, d)
		if refErr != nil {
			t.Fatal(refErr)
		}
		if len(ev.Candidates) != len(ref.Candidates) || ev.Derivations != ref.Derivations {
			t.Fatalf("EvaluateSQL diverged from sqlfront.Evaluate: %d/%d vs %d/%d",
				len(ev.Candidates), ev.Derivations, len(ref.Candidates), ref.Derivations)
		}

		phis := make([]realfmla.Formula, len(ev.Candidates))
		for i, c := range ev.Candidates {
			phis[i] = c.Phi
		}
		want, errs := MeasureBatch(opts, phis, 0.05, 0.25)
		for _, e := range errs {
			if e != nil {
				t.Fatal(e)
			}
		}

		got, err := New(opts).MeasureSQL(q, d, 0.05, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if got.Derivations != ev.Derivations || len(got.Candidates) != len(ev.Candidates) {
			t.Fatalf("MeasureSQL shape: %d/%d, want %d/%d",
				len(got.Candidates), got.Derivations, len(ev.Candidates), ev.Derivations)
		}
		for i, mc := range got.Candidates {
			if !mc.Tuple.Equal(ev.Candidates[i].Tuple) || !realfmla.Equal(mc.Phi, ev.Candidates[i].Phi) {
				t.Fatalf("candidate %d diverged", i)
			}
			if mc.Measure.Value != want[i].Value || mc.Measure.Method != want[i].Method ||
				mc.Measure.Samples != want[i].Samples {
				t.Fatalf("candidate %d: measure %+v, want %+v (opts %+v)", i, mc.Measure, want[i], opts)
			}
		}
	}
}

// TestMeasureSQLDeterministic: repeated fused runs agree bitwise.
func TestMeasureSQLDeterministic(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 8, Products: 60, Orders: 40, Market: 20, Segments: 6, NullRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		`SELECT P.id FROM Products P WHERE P.rrp * P.dis > 50 LIMIT 5`,
		`SELECT P.seg FROM Products P, Market M WHERE P.seg = M.seg AND P.rrp <= M.rrp`,
	}
	for _, src := range srcs {
		q := sqlfront.MustParse(src)
		a, err := New(Options{Seed: 3, DisableExact: true}).MeasureSQL(q, d, 0.05, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Options{Seed: 3, DisableExact: true}).MeasureSQL(q, d, 0.05, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Candidates) != len(b.Candidates) {
			t.Fatalf("candidate counts differ: %d vs %d", len(a.Candidates), len(b.Candidates))
		}
		for i := range a.Candidates {
			if a.Candidates[i].Measure.Value != b.Candidates[i].Measure.Value {
				t.Fatalf("run-to-run divergence at candidate %d", i)
			}
		}
	}
}

// TestMeasureSQLBadParams: parameter validation mirrors MeasureFormula.
func TestMeasureSQLBadParams(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{Seed: 1, Products: 5, Orders: 5, Market: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(`SELECT P.id FROM Products P`)
	if _, err := New(Options{}).MeasureSQL(q, d, 0, 0.5); err == nil {
		t.Error("accepted eps=0")
	}
	if _, err := New(Options{}).MeasureSQL(q, d, 0.1, 1); err == nil {
		t.Error("accepted delta=1")
	}
	bad := sqlfront.MustParse(`SELECT P.id FROM Products P`)
	bad.From[0].Relation = "Nope"
	if _, err := New(Options{}).MeasureSQL(bad, d, 0.1, 0.1); err == nil {
		t.Error("accepted unknown relation")
	}
}
