package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/realfmla"
	"repro/internal/sqlfront"
)

// sectorFormula builds a 2-variable linear formula whose measure is
// exactly theta/(2π) for theta ∈ (0, π): the directions with polar angle
// in [0, theta], cut out by y ≥ 0 and the rotated half-plane
// −x·sin θ + y·cos θ ≤ 0. With DisableExact these formulas hit the
// sampling path with a dialed-in true measure — the knob every adaptive
// test here needs.
func sectorFormula(theta float64) realfmla.Formula {
	return realfmla.And(
		linAtom(2, []float64{0, 1}, 0, realfmla.GE),
		linAtom(2, []float64{-math.Sin(theta), math.Cos(theta)}, 0, realfmla.LE),
	)
}

// sectorForMeasure is sectorFormula parameterized by the target measure
// mu ∈ (0, 1/2).
func sectorForMeasure(mu float64) realfmla.Formula {
	return sectorFormula(mu * 2 * math.Pi)
}

// refTopK ranks full-budget MeasureBatch estimates by (value desc, index
// asc) — the race's documented tie-breaking — and returns the index set
// of the first k: the fixed-budget reference the adaptive race must
// reproduce.
func refTopK(opts Options, phis []realfmla.Formula, k int, eps, delta float64, t *testing.T) map[int]bool {
	t.Helper()
	res, errs := MeasureBatch(opts, phis, eps, delta)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reference formula %d: %v", i, err)
		}
	}
	order := make([]int, len(phis))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := res[order[a]].Value, res[order[b]].Value
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})
	want := make(map[int]bool, k)
	for _, idx := range order[:k] {
		want[idx] = true
	}
	return want
}

// skewedMeasures is the racing-friendly workload: many near-impossible
// candidates and a few near-certain ones, the shape where freezing pays.
func skewedMeasures(n, winners int) []float64 {
	mus := make([]float64, n)
	for i := range mus {
		// Small deterministic spread keeps the formulas distinct.
		mus[i] = 0.04 + 0.001*float64(i%7)
	}
	for i := 0; i < winners; i++ {
		mus[(i*n/winners+3)%n] = 0.43 - 0.01*float64(i)
	}
	return mus
}

// TestMeasureTopKDeterministic: the adaptive race is bit-stable across
// PoolWorkers settings and across repeated runs — winners, values,
// per-candidate spend and total spend all identical, the same contract
// the fixed path documents.
func TestMeasureTopKDeterministic(t *testing.T) {
	mus := skewedMeasures(12, 3)
	phis := make([]realfmla.Formula, len(mus))
	for i, mu := range mus {
		phis[i] = sectorForMeasure(mu)
	}
	var ref *TopKResult
	for run := 0; run < 2; run++ {
		for _, w := range []int{1, 2, 4, 0} {
			e := New(Options{Seed: 71, DisableExact: true, PoolWorkers: w})
			res, err := e.MeasureTopK(phis, 3, 0.03, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if len(res.Winners) != len(ref.Winners) ||
				res.SamplesDrawn != ref.SamplesDrawn || res.Rounds != ref.Rounds {
				t.Fatalf("run %d workers %d: shape %v/%d/%d, want %v/%d/%d",
					run, w, res.Winners, res.SamplesDrawn, res.Rounds,
					ref.Winners, ref.SamplesDrawn, ref.Rounds)
			}
			for i := range res.Winners {
				if res.Winners[i] != ref.Winners[i] ||
					res.Results[i].Value != ref.Results[i].Value ||
					res.Results[i].SamplesDrawn != ref.Results[i].SamplesDrawn {
					t.Fatalf("run %d workers %d winner %d: %d/%v/%d, want %d/%v/%d",
						run, w, i, res.Winners[i], res.Results[i].Value, res.Results[i].SamplesDrawn,
						ref.Winners[i], ref.Results[i].Value, ref.Results[i].SamplesDrawn)
				}
			}
		}
	}
}

// TestMeasureTopKMatchesReference: fuzz over skewed and spread candidate
// sets — the adaptive winners are exactly the full-budget reference's
// top-k set whenever the measures around the cut are separated (the
// candidate generators keep a ≥ 3·eps gap, so both rankings resolve the
// same way).
func TestMeasureTopKMatchesReference(t *testing.T) {
	const eps, delta = 0.05, 0.25
	rng := rand.New(rand.NewSource(2020))
	for trial := 0; trial < 12; trial++ {
		var mus []float64
		n := 6 + rng.Intn(8)
		k := 1 + rng.Intn(3)
		if trial%2 == 0 {
			mus = skewedMeasures(n, k)
		} else {
			// Spread: measures on a grid with gaps ≥ 3·eps, shuffled.
			mus = make([]float64, n)
			for i := range mus {
				mus[i] = 0.03 + 0.031*float64(i)
			}
			rng.Shuffle(n, func(i, j int) { mus[i], mus[j] = mus[j], mus[i] })
		}
		phis := make([]realfmla.Formula, n)
		for i, mu := range mus {
			phis[i] = sectorForMeasure(mu)
		}
		opts := Options{Seed: int64(100 + trial), DisableExact: true}
		want := refTopK(opts, phis, k, eps, delta, t)

		res, err := New(opts).MeasureTopK(phis, k, eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Winners) != k {
			t.Fatalf("trial %d: %d winners, want %d", trial, len(res.Winners), k)
		}
		for _, idx := range res.Winners {
			if !want[idx] {
				t.Errorf("trial %d (n=%d k=%d): winner %d (μ≈%.3f) not in reference top-k %v",
					trial, n, k, idx, mus[idx], want)
			}
		}
		// Winners arrive in ascending candidate order.
		for i := 1; i < len(res.Winners); i++ {
			if res.Winners[i] <= res.Winners[i-1] {
				t.Fatalf("trial %d: winners %v not in candidate order", trial, res.Winners)
			}
		}
	}
}

// TestMeasureTopKSavesSamples: the acceptance bar of the adaptive race —
// on a skewed candidate set the race draws at least 3× fewer samples
// than the fixed budget n·m, while returning the same top-k set.
func TestMeasureTopKSavesSamples(t *testing.T) {
	const eps, delta = 0.02, 0.25
	mus := skewedMeasures(24, 4)
	phis := make([]realfmla.Formula, len(mus))
	for i, mu := range mus {
		phis[i] = sectorForMeasure(mu)
	}
	opts := Options{Seed: 17, DisableExact: true}
	e := New(opts)
	m, err := e.sampleCount(eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	fixed := len(phis) * m

	res, err := e.MeasureTopK(phis, 4, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesDrawn <= 0 || res.Rounds <= 0 {
		t.Fatalf("race reported no spend: %d samples, %d rounds", res.SamplesDrawn, res.Rounds)
	}
	if res.SamplesDrawn*3 > fixed {
		t.Errorf("adaptive spend %d not ≥3× below the fixed budget %d (ratio %.2f)",
			res.SamplesDrawn, fixed, float64(fixed)/float64(res.SamplesDrawn))
	}
	want := refTopK(opts, phis, 4, eps, delta, t)
	for _, idx := range res.Winners {
		if !want[idx] {
			t.Errorf("winner %d not in the full-budget top-k %v", idx, want)
		}
	}
}

// TestMeasureTopKFullBudgetParity: a candidate the race cannot freeze
// runs to the full budget, where its estimate is bit-identical to the
// fixed path's — the prefix-of-the-same-stream property.
func TestMeasureTopKFullBudgetParity(t *testing.T) {
	const eps, delta = 0.05, 0.25
	// Two near-ties around the cut: the race must run them to m.
	mus := []float64{0.25, 0.252, 0.05, 0.06}
	phis := make([]realfmla.Formula, len(mus))
	for i, mu := range mus {
		phis[i] = sectorForMeasure(mu)
	}
	opts := Options{Seed: 23, DisableExact: true}
	fixed, errs := MeasureBatch(opts, phis, eps, delta)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := New(opts).MeasureTopK(phis, 1, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Winners) != 1 {
		t.Fatalf("winners %v", res.Winners)
	}
	idx := res.Winners[0]
	got := res.Results[0]
	if got.Samples == fixed[idx].Samples && got.Value != fixed[idx].Value {
		t.Errorf("winner %d at full budget: race value %v, fixed value %v",
			idx, got.Value, fixed[idx].Value)
	}
	if got.Method != MethodAFPRASRace {
		t.Errorf("winner method %s", got.Method)
	}
}

// TestMeasureTopKAllExact: a race whose candidates all resolve exactly
// needs zero samples and zero rounds, and equal (certain) candidates
// resolve to the first k in candidate order — the legacy LIMIT tie
// semantics.
func TestMeasureTopKAllExact(t *testing.T) {
	phis := make([]realfmla.Formula, 6)
	for i := range phis {
		phis[i] = linAtom(2, []float64{0, 0}, 1, realfmla.GT) // constant true: μ = 1
	}
	res, err := New(Options{Seed: 5}).MeasureTopK(phis, 3, 0.05, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesDrawn != 0 || res.Rounds != 0 {
		t.Errorf("exact race drew %d samples in %d rounds", res.SamplesDrawn, res.Rounds)
	}
	want := []int{0, 1, 2}
	if len(res.Winners) != 3 {
		t.Fatalf("winners %v", res.Winners)
	}
	for i, idx := range res.Winners {
		if idx != want[i] {
			t.Fatalf("winners %v, want %v (first-k tie order)", res.Winners, want)
		}
		if !res.Results[i].Exact || res.Results[i].Value != 1 {
			t.Errorf("winner %d: %+v, want exact μ=1", idx, res.Results[i])
		}
	}
}

// TestMeasureTopKEdgeCases: empty candidate set, k ≥ n, and parameter
// validation through the shared validator.
func TestMeasureTopKEdgeCases(t *testing.T) {
	e := New(Options{Seed: 2, DisableExact: true})
	res, err := e.MeasureTopK(nil, 3, 0.05, 0.25)
	if err != nil || len(res.Winners) != 0 {
		t.Fatalf("empty race: %v %v", res, err)
	}
	phis := []realfmla.Formula{sectorForMeasure(0.1), sectorForMeasure(0.3)}
	res, err = e.MeasureTopK(phis, 10, 0.05, 0.25)
	if err != nil || len(res.Winners) != 2 {
		t.Fatalf("k>n race: %v %v", res, err)
	}
	// k ≥ n freezes every candidate IN at round 0; each must still draw
	// until its interval meets the eps contract, not finalize at zero.
	want := []float64{0.1, 0.3}
	for i, idx := range res.Winners {
		r := res.Results[i]
		if math.Abs(r.Value-want[idx]) > 0.05 {
			t.Errorf("winner %d: value %v, want %v ± 0.05", idx, r.Value, want[idx])
		}
		if r.SamplesDrawn == 0 {
			t.Errorf("winner %d: zero samples drawn", idx)
		}
	}
	if res.SamplesDrawn == 0 {
		t.Error("k>n race drew zero samples in total")
	}
	if _, err := e.MeasureTopK(phis, 1, 0, 0.25); err == nil {
		t.Error("accepted eps=0")
	}
	if _, err := e.MeasureTopK(phis, 1, 0.05, 1); err == nil {
		t.Error("accepted delta=1")
	}
	if _, err := e.MeasureTopK(phis, 1, math.NaN(), 0.25); err == nil {
		t.Error("accepted eps=NaN")
	}
}

// TestMeasureSQLAdaptiveTopK: the LIMIT-k SQL path routes through the
// race by default and returns the k most certain answers of the FULL
// candidate set — matched against enumerating without LIMIT and ranking
// full-budget measures — with the spend counters populated, bit-stable
// across pool widths, and byte-identical to the legacy path under
// NoAdaptive.
func TestMeasureSQLAdaptiveTopK(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 12, Products: 90, Orders: 60, Market: 24, Segments: 8,
		NullRate: 0.35, MarketNullRate: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	full := sqlfront.MustParse(`SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis`)
	limited := sqlfront.MustParse(`SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 5`)
	const eps, delta = 0.05, 0.25

	opts := Options{Seed: 31, DisableExact: true}
	ev, err := New(opts).EvaluateSQL(full, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Candidates) <= k {
		t.Fatalf("workload too small: %d candidates", len(ev.Candidates))
	}
	phis := make([]realfmla.Formula, len(ev.Candidates))
	for i, c := range ev.Candidates {
		phis[i] = c.Phi
	}
	want := refTopK(opts, phis, k, eps, delta, t)

	var ref *SQLMeasured
	for _, pool := range []int{1, 4} {
		o := opts
		o.PoolWorkers = pool
		got, err := New(o).MeasureSQL(limited, d, eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Candidates) != k {
			t.Fatalf("pool %d: %d candidates, want %d", pool, len(got.Candidates), k)
		}
		if got.SamplesDrawn <= 0 || got.Rounds <= 0 {
			t.Fatalf("pool %d: spend counters %d/%d", pool, got.SamplesDrawn, got.Rounds)
		}
		if got.Derivations != ev.Derivations {
			t.Fatalf("pool %d: derivations %d, want %d", pool, got.Derivations, ev.Derivations)
		}
		seen := 0
		for _, mc := range got.Candidates {
			for idx := range want {
				if realfmla.Equal(mc.Phi, phis[idx]) && mc.Tuple.Equal(ev.Candidates[idx].Tuple) {
					seen++
					break
				}
			}
		}
		if seen != k {
			t.Fatalf("pool %d: only %d of %d delivered candidates are in the reference top-k", pool, seen, k)
		}
		if ref == nil {
			ref = got
			continue
		}
		if got.SamplesDrawn != ref.SamplesDrawn || got.Rounds != ref.Rounds {
			t.Fatalf("pool widths disagree on spend: %d/%d vs %d/%d",
				got.SamplesDrawn, got.Rounds, ref.SamplesDrawn, ref.Rounds)
		}
		for i := range got.Candidates {
			if got.Candidates[i].Measure.Value != ref.Candidates[i].Measure.Value {
				t.Fatalf("pool widths disagree at winner %d", i)
			}
		}
	}

	// The escape hatch restores the legacy semantics: first-k distinct
	// tuples, full budget, zero race counters.
	o := opts
	o.NoAdaptive = true
	legacy, err := New(o).MeasureSQL(limited, d, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.SamplesDrawn != 0 || legacy.Rounds != 0 {
		t.Fatalf("NoAdaptive run reported race spend %d/%d", legacy.SamplesDrawn, legacy.Rounds)
	}
	if len(legacy.Candidates) != k {
		t.Fatalf("NoAdaptive candidates %d", len(legacy.Candidates))
	}
	for i, mc := range legacy.Candidates {
		if !mc.Tuple.Equal(ev.Candidates[i].Tuple) {
			t.Fatalf("NoAdaptive candidate %d is not the first-k tuple", i)
		}
	}
}

// TestMeasureSQLStreamAdaptiveParity: the streaming and buffered
// adaptive paths deliver identical winners, measures and spend.
func TestMeasureSQLStreamAdaptiveParity(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 3, Products: 60, Orders: 40, Market: 20, Segments: 6, NullRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(`SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 4`)
	opts := Options{Seed: 7, DisableExact: true}
	buf, err := New(opts).MeasureSQL(q, d, 0.05, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []MeasuredCandidate
	info, err := New(opts).MeasureSQLStream(t.Context(), q, d, 0.05, 0.25,
		func(idx int, c MeasuredCandidate) error {
			if idx != len(streamed) {
				t.Fatalf("stream idx %d, want %d", idx, len(streamed))
			}
			streamed = append(streamed, c)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(buf.Candidates) || info.Count != len(buf.Candidates) {
		t.Fatalf("stream delivered %d, buffered %d", len(streamed), len(buf.Candidates))
	}
	if info.SamplesDrawn != buf.SamplesDrawn || info.Rounds != buf.Rounds {
		t.Fatalf("spend %d/%d vs %d/%d", info.SamplesDrawn, info.Rounds, buf.SamplesDrawn, buf.Rounds)
	}
	for i := range streamed {
		if !streamed[i].Tuple.Equal(buf.Candidates[i].Tuple) ||
			streamed[i].Measure.Value != buf.Candidates[i].Measure.Value ||
			streamed[i].Measure.SamplesDrawn != buf.Candidates[i].Measure.SamplesDrawn {
			t.Fatalf("winner %d diverged between stream and buffer", i)
		}
	}
}

// TestRankCounts pins the pairwise semantics of the sorted-endpoint
// counting against the naive O(n²) definition, including tie handling.
func TestRankCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	grid := []float64{0, 0.2, 0.25, 0.5, 0.8, 1}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for i := range lo {
			a, b := grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))]
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
		}
		ahead := make([]int, n)
		behind := make([]int, n)
		rankCounts(lo, hi, ahead, behind)
		for i := 0; i < n; i++ {
			wantAhead, wantBehind := 0, 0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if aheadOf(lo[j], hi[i], j, i) {
					wantAhead++
				}
				if aheadOf(lo[i], hi[j], i, j) {
					wantBehind++
				}
			}
			if ahead[i] != wantAhead || behind[i] != wantBehind {
				t.Fatalf("trial %d item %d: ahead %d want %d, behind %d want %d (lo=%v hi=%v)",
					trial, i, ahead[i], wantAhead, behind[i], wantBehind, lo, hi)
			}
		}
	}
}
