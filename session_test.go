package arithdb_test

import (
	"testing"

	arithdb "repro"
	"repro/internal/realfmla"
)

// TestSessionFusedPipeline wires the public facade end to end: Session
// evaluation matches EvaluateSQL, and the fused MeasureSQL returns the
// same candidates with deterministic measures under every planner
// toggle.
func TestSessionFusedPipeline(t *testing.T) {
	d, err := arithdb.GenerateSales(arithdb.SalesConfig{
		Seed: 4, Products: 80, Orders: 60, Market: 24, Segments: 8, NullRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := `SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 6`

	q, err := arithdb.ParseSQL(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := arithdb.EvaluateSQL(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Candidates) == 0 {
		t.Fatal("workload produced no candidates")
	}

	var ref *arithdb.SQLMeasured
	// NoAdaptive: this test compares LIMIT-k candidates against
	// EvaluateSQL's first-k distinct tuples, the fixed-budget contract.
	// The adaptive race is covered by internal/core's adaptive suite.
	for _, opts := range []arithdb.EngineOptions{
		{Seed: 5, NoAdaptive: true},
		{Seed: 5, NoAdaptive: true, PoolWorkers: 2},
	} {
		sess := arithdb.NewSession(d, opts)
		ev, err := sess.SQL(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.Candidates) != len(want.Candidates) || ev.Derivations != want.Derivations {
			t.Fatalf("%+v: Session.SQL diverged from EvaluateSQL", opts)
		}

		got, err := sess.MeasureSQL(src, 0.05, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if got.Derivations != want.Derivations || len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("%+v: MeasureSQL shape %d/%d, want %d/%d", opts,
				len(got.Candidates), got.Derivations, len(want.Candidates), want.Derivations)
		}
		for i, c := range got.Candidates {
			if !c.Tuple.Equal(want.Candidates[i].Tuple) || !realfmla.Equal(c.Phi, want.Candidates[i].Phi) {
				t.Fatalf("%+v: candidate %d diverged", opts, i)
			}
			if c.Measure.Value < 0 || c.Measure.Value > 1 {
				t.Fatalf("candidate %d: μ = %v", i, c.Measure.Value)
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		// Planner toggles and worker counts must not change measures.
		for i := range ref.Candidates {
			if got.Candidates[i].Measure.Value != ref.Candidates[i].Measure.Value {
				t.Fatalf("%+v: measure %d = %v, want %v (toggles changed results)",
					opts, i, got.Candidates[i].Measure.Value, ref.Candidates[i].Measure.Value)
			}
		}
	}
}
