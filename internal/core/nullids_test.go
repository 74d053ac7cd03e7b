package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/realfmla"
	"repro/internal/sqlast"
	"repro/internal/sqlfront"
	"repro/internal/value"
)

// mentionedNulls is the reference for NullIDs: the sorted, distinct IDs
// of the nulls the candidates' constraints mention, read off the atoms
// and mapped through d's inventory.
func mentionedNulls(d *db.Database, cands []MeasuredCandidate) []int {
	inventory, _ := d.NumNullIndex()
	var ids []int
	for _, c := range cands {
		for _, a := range realfmla.Atoms(c.Phi) {
			for _, term := range a.P.Terms {
				for _, v := range term.Vars {
					ids = append(ids, inventory[v.Var])
				}
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// measureEveryEntry runs q over d through MeasureSQL, MeasureSQLStream
// and MeasureCandidatesStream (over an exec.Aggregate the test stages
// itself), keyed by entry point.
func measureEveryEntry(t *testing.T, opts Options, q *sqlast.Query, d *db.Database) map[string]*SQLMeasured {
	t.Helper()
	const eps, delta = 0.05, 0.25
	out := map[string]*SQLMeasured{}
	got, err := New(opts).MeasureSQL(q, d, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	out["MeasureSQL"] = got
	got, err = collectSQL(func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error) {
		return New(opts).MeasureSQLStream(context.Background(), q, d, eps, delta, yield)
	})
	if err != nil {
		t.Fatal(err)
	}
	out["MeasureSQLStream"] = got
	e := New(opts)
	p, err := plan.Build(q, d, e.PlanOptions())
	if err != nil {
		t.Fatal(err)
	}
	field := *p
	if e.RaceApplies(p.Limit) {
		field.Limit = 0
	}
	res, _, err := exec.Aggregate(&field, d, e.ExecOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = collectSQL(func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error) {
		return e.MeasureCandidatesStream(context.Background(), res, p.Limit, eps, delta, yield)
	})
	if err != nil {
		t.Fatal(err)
	}
	out["MeasureCandidatesStream"] = got
	return out
}

// TestNullIDsAreThoseTheAnswerMentions: NullIDs lists exactly the nulls the
// returned constraints mention — not the database's inventory — on the
// race, on a NoAdaptive LIMIT and without LIMIT, the same through every
// entry point. Rows of fresh nulls that join nothing move neither it nor
// the answer: count, derivations and every value bit stay.
func TestNullIDsAreThoseTheAnswerMentions(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 5, Products: 120, Orders: 90, Market: 30, Segments: 10,
		NullRate: 0.3, MarketNullRate: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const lookup = `SELECT P.id FROM Products P, Market M
		WHERE P.seg = 'seg3' AND P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis`
	cases := []struct {
		name string
		sql  string
		opts Options
	}{
		{"race", lookup + " LIMIT 4", Options{Seed: 9}},
		{"noAdaptive", lookup + " LIMIT 4", Options{Seed: 9, NoAdaptive: true}},
		{"noLimit", lookup, Options{Seed: 9}},
	}
	before := map[string]map[string]*SQLMeasured{}
	check := func(t *testing.T, d *db.Database, name string, runs map[string]*SQLMeasured) {
		t.Helper()
		inventory := d.NumNulls()
		for entry, got := range runs {
			want := mentionedNulls(d, got.Candidates)
			if len(want) == 0 || len(want) >= len(inventory) {
				t.Fatalf("%s/%s: %d mentioned nulls of %d: the case proves nothing", name, entry, len(want), len(inventory))
			}
			if !slices.Equal(got.NullIDs, want) {
				t.Fatalf("%s/%s: NullIDs %v, want the mentioned %v", name, entry, got.NullIDs, want)
			}
			ref := runs["MeasureSQL"]
			if !slices.Equal(got.NullIDs, ref.NullIDs) {
				t.Fatalf("%s/%s: NullIDs %v, MeasureSQL's %v", name, entry, got.NullIDs, ref.NullIDs)
			}
		}
	}
	for _, tc := range cases {
		runs := measureEveryEntry(t, tc.opts, sqlfront.MustParse(tc.sql), d)
		check(t, d, tc.name, runs)
		before[tc.name] = runs
	}

	// Fresh segments and fresh nulls: nothing the lookup reads joins them.
	for i := 0; i < 40; i++ {
		d.MustInsert("Market", value.Base(fmt.Sprintf("fresh%d", i)), d.FreshNumNull(), value.Num(0.5))
	}
	for _, tc := range cases {
		runs := measureEveryEntry(t, tc.opts, sqlfront.MustParse(tc.sql), d)
		check(t, d, tc.name+"/after-insert", runs)
		for entry, got := range runs {
			was := before[tc.name][entry]
			label := fmt.Sprintf("%s/%s after insert", tc.name, entry)
			if !slices.Equal(got.NullIDs, was.NullIDs) {
				t.Fatalf("%s: NullIDs %v, were %v", label, got.NullIDs, was.NullIDs)
			}
			if len(got.Candidates) != len(was.Candidates) || got.Derivations != was.Derivations {
				t.Fatalf("%s: %d candidates / %d derivations, were %d / %d", label,
					len(got.Candidates), got.Derivations, len(was.Candidates), was.Derivations)
			}
			for i, c := range got.Candidates {
				if !c.Tuple.Equal(was.Candidates[i].Tuple) ||
					math.Float64bits(c.Measure.Value) != math.Float64bits(was.Candidates[i].Measure.Value) {
					t.Fatalf("%s: candidate %d %v μ=%v, was %v μ=%v", label, i,
						c.Tuple, c.Measure.Value, was.Candidates[i].Tuple, was.Candidates[i].Measure.Value)
				}
			}
		}
	}
}
