package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/sqlfront"
	"repro/internal/wire"
)

// oracle holds the reference answer of every distinct request, computed
// in-process with the server's engine options before the window starts.
type oracle struct {
	want map[string]*core.SQLMeasured
}

func buildOracle(d *db.Database, texts []string, eps float64) (*oracle, error) {
	o := &oracle{want: make(map[string]*core.SQLMeasured, len(texts))}
	for _, sql := range texts {
		q, err := sqlfront.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		res, err := core.New(engineOptions).MeasureSQL(q, d, eps, delta)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		o.want[sql] = res
	}
	return o, nil
}

// check compares a response with the reference candidate by candidate, as
// internal/server's assertCandidateParity does: tuple, bits of the value,
// method metadata, exact rational. static says no insert can have landed
// since the reference was taken; when rows were appended, the ambient
// dimension K and the null inventory may only have grown — the feed's
// segments join nothing a lookup reads, so everything else must not move.
func (o *oracle) check(sql string, got *wire.MeasureResponse, static bool) error {
	want, ok := o.want[sql]
	if !ok {
		return fmt.Errorf("no reference for %q", sql)
	}
	if got.Count != len(want.Candidates) || len(got.Candidates) != got.Count || got.Derivations != want.Derivations {
		return fmt.Errorf("shape %d candidates / %d derivations, want %d / %d",
			got.Count, got.Derivations, len(want.Candidates), want.Derivations)
	}
	if len(got.NullIDs) != len(want.NullIDs) && (static || len(got.NullIDs) < len(want.NullIDs)) {
		return fmt.Errorf("%d null ids, want %d", len(got.NullIDs), len(want.NullIDs))
	}
	for i, gc := range got.Candidates {
		wc := want.Candidates[i]
		tuple, err := wire.ToTuple(gc.Tuple)
		if err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
		if !tuple.Equal(wc.Tuple) {
			return fmt.Errorf("candidate %d: tuple %v, want %v", i, tuple, wc.Tuple)
		}
		m, err := gc.Measure.Result()
		if err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
		w := wc.Measure
		if math.Float64bits(m.Value) != math.Float64bits(w.Value) {
			return fmt.Errorf("candidate %d: value %v, want %v (bits differ)", i, m.Value, w.Value)
		}
		if m.Exact != w.Exact || m.Method != w.Method || m.Samples != w.Samples || m.RelevantK != w.RelevantK ||
			(m.K != w.K && (static || m.K < w.K)) {
			return fmt.Errorf("candidate %d: %+v, want %+v", i, m, w)
		}
		if (m.Rat == nil) != (w.Rat == nil) || (m.Rat != nil && m.Rat.Cmp(w.Rat) != 0) {
			return fmt.Errorf("candidate %d: rational %v, want %v", i, m.Rat, w.Rat)
		}
	}
	return nil
}
