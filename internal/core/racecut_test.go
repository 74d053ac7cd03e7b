package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/poly"
	"repro/internal/realfmla"
	"repro/internal/sqlfront"
)

// uncut rewraps every syntactically certain formula (FTrue) as Or(true):
// the same exact ν = 1 through the same trivial method, but not
// syntactically certain, so the race's cut after the k-th certain
// candidate never fires. It is the reference the cut must match bit for
// bit.
func uncut(phis []realfmla.Formula) []realfmla.Formula {
	out := make([]realfmla.Formula, len(phis))
	for i, phi := range phis {
		if _, ok := phi.(realfmla.FTrue); ok {
			phi = realfmla.FOr{Fs: []realfmla.Formula{realfmla.FTrue{}}}
		}
		out[i] = phi
	}
	return out
}

// cutFieldFormula draws one non-certain candidate constraint over 4
// variables: a sampled nonlinear formula (some near certain, some whose
// samples all hit, so that the estimate ties the certain candidates at
// 1), an exact order or sector formula, or the constant false.
func cutFieldFormula(rng *rand.Rand) realfmla.Formula {
	const n = 4
	nonlin := func() realfmla.Formula {
		i, j, l := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		p := poly.Var(n, i).Mul(poly.Var(n, j)).Scale(rng.Float64() + 0.5).
			Add(poly.Var(n, l).Scale(rng.NormFloat64()))
		rel := realfmla.LE
		if rng.Intn(2) == 0 {
			rel = realfmla.GE
		}
		return realfmla.FAtom{A: realfmla.Atom{P: p, Rel: rel}}
	}
	switch rng.Intn(6) {
	case 0:
		return realfmla.And(nonlin(), nonlin())
	case 1: // near certain, so the interval width decides when it freezes
		return realfmla.Or(nonlin(), nonlin(), nonlin(), nonlin(), nonlin())
	case 2:
		return realfmla.Or(nonlin(), nonlin())
	case 3: // a sum of squares: sampled, every sample a hit
		sq := poly.Var(n, 0).Mul(poly.Var(n, 0)).Add(poly.Var(n, 1).Mul(poly.Var(n, 1)))
		return realfmla.FAtom{A: realfmla.Atom{P: sq, Rel: realfmla.GE}}
	case 4:
		if rng.Intn(2) == 0 {
			return linAtom(n, []float64{1, -1, 0, 0}, 0, realfmla.LE) // exact order, ν = 1/2
		}
		return sectorFormula(0.3 + 2.5*rng.Float64()) // exact sector
	default:
		return realfmla.FFalse{}
	}
}

// cutField builds an n-candidate race field with the certain candidates
// placed as named.
func cutField(rng *rand.Rand, n, k int, placement string) []realfmla.Formula {
	// "after-sampled": mixed candidates, then the certain ones, then a
	// tail of exactly measured ones only, so the cut drops nothing sampled.
	tail := 0
	if placement == "after-sampled" {
		tail = (n - k) / 2
	}
	certain := func(i int) bool {
		switch placement {
		case "first-k":
			return i < k
		case "interleaved":
			return i%4 != 0
		case "after-sampled":
			return i >= n-k-tail && i < n-tail
		}
		return false
	}
	phis := make([]realfmla.Formula, n)
	for i := range phis {
		switch {
		case certain(i):
			phis[i] = realfmla.FTrue{}
		case i >= n-tail && i%2 == 0:
			phis[i] = sectorFormula(0.2 + 0.05*float64(i))
		case i >= n-tail:
			phis[i] = realfmla.FFalse{}
		default:
			phis[i] = cutFieldFormula(rng)
		}
	}
	return phis
}

// sameTopK fails unless the two race results agree in winners, values
// (bit for bit), per-winner spend and total spend.
func sameTopK(t *testing.T, label string, got, want *TopKResult) {
	t.Helper()
	if len(got.Winners) != len(want.Winners) {
		t.Fatalf("%s: %d winners, want %d", label, len(got.Winners), len(want.Winners))
	}
	for i := range want.Winners {
		g, w := got.Results[i], want.Results[i]
		if got.Winners[i] != want.Winners[i] ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			g.SamplesDrawn != w.SamplesDrawn || g.Rounds != w.Rounds {
			t.Fatalf("%s: winner %d = idx %d %v (%d samples, %d rounds), want idx %d %v (%d, %d)",
				label, i, got.Winners[i], g.Value, g.SamplesDrawn, g.Rounds,
				want.Winners[i], w.Value, w.SamplesDrawn, w.Rounds)
		}
	}
	if got.SamplesDrawn != want.SamplesDrawn || got.Rounds != want.Rounds {
		t.Fatalf("%s: spend %d samples / %d rounds, want %d / %d",
			label, got.SamplesDrawn, got.Rounds, want.SamplesDrawn, want.Rounds)
	}
}

// TestRaceCutMatchesUncut: skipping the candidates after the k-th
// certain one moves no bit of a race, for every k and every placement of
// the certain candidates, at every pool width.
func TestRaceCutMatchesUncut(t *testing.T) {
	const n, eps, delta = 200, 0.05, 0.25
	for _, k := range []int{1, 25, n - 1, n} {
		for _, placement := range []string{"none", "first-k", "interleaved", "after-sampled"} {
			phis := cutField(rand.New(rand.NewSource(int64(97*k+len(placement)))), n, k, placement)
			ref := uncut(phis)
			for _, pool := range []int{1, 3} {
				label := fmt.Sprintf("k=%d %s pool=%d", k, placement, pool)
				opts := Options{Seed: 5, PoolWorkers: pool}
				want, err := New(opts).MeasureTopK(ref, k, eps, delta)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := New(opts).MeasureTopK(phis, k, eps, delta)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameTopK(t, label, got, want)
			}
		}
	}
}

// TestRaceCutFigure1 runs Figure 1's Competitive Advantage LIMIT 25 on
// the benchmark's database (datagen seed 2020): the cut race returns
// exactly the uncut race's answers, and a request compiles only the
// candidates up to the 25th certain one (index 77 of ≈2 000) — without
// the cut it fills a 1024-entry kernel cache.
func TestRaceCutFigure1(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full Figure 1 database")
	}
	d, err := datagen.Generate(datagen.Config{
		Seed: 2020, Products: 20000, Orders: 16000, Market: 4000, Segments: 2000,
		NullRate: 0.1, MarketNullRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(datagen.CompetitiveAdvantage)
	const eps, delta = 0.05, 0.05
	opts := Options{Seed: 7, PoolWorkers: 1}

	kc := NewKernels(1024)
	eng := New(opts)
	eng.UseKernels(kc)
	got, err := eng.MeasureSQL(q, d, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	if n := kernelCount(kc); n > 78 {
		t.Errorf("one CA LIMIT 25 request compiled %d kernels, want ≤ 78 (the live candidates)", n)
	}

	// The reference: the full field, aggregated without the executor's
	// cut, with its certain constraints rewrapped so the race cuts nothing.
	p, err := plan.Build(q, d, eng.PlanOptions())
	if err != nil {
		t.Fatal(err)
	}
	pl := *p
	pl.Limit = 0
	res, _, err := exec.Aggregate(&pl, d, eng.ExecOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	phis := make([]realfmla.Formula, len(res.Candidates))
	for i, c := range res.Candidates {
		phis[i] = c.Phi
	}
	for i, phi := range uncut(phis) {
		res.Candidates[i].Phi = phi
	}
	want, err := collectSQL(func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error) {
		return New(opts).MeasureCandidatesStream(t.Context(), res, p.Limit, eps, delta, yield)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Derivations != want.Derivations || got.SamplesDrawn != want.SamplesDrawn || got.Rounds != want.Rounds {
		t.Fatalf("derivations/samples/rounds %d/%d/%d, want %d/%d/%d",
			got.Derivations, got.SamplesDrawn, got.Rounds, want.Derivations, want.SamplesDrawn, want.Rounds)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%d answers, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		g, w := got.Candidates[i], want.Candidates[i]
		if !g.Tuple.Equal(w.Tuple) ||
			math.Float64bits(g.Measure.Value) != math.Float64bits(w.Measure.Value) ||
			g.Measure.SamplesDrawn != w.Measure.SamplesDrawn || g.Measure.Rounds != w.Measure.Rounds {
			t.Fatalf("answer %d = %v %v, want %v %v", i, g.Tuple, g.Measure.Value, w.Tuple, w.Measure.Value)
		}
	}
}
