package shard_test

// Shard-count invariance — the PR's acceptance criterion. Every test
// here asserts the strong form of the contract: for the same rows in the
// same insert order, the sharded store returns results bit-identical
// (Float64bits of every measure, same derivation and sampling counters)
// to the single-store pipeline, for every shard count and every worker
// configuration, LIMIT-k adaptive racing included.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/shard"
	"repro/internal/sqlfront"
	"repro/internal/value"
)

func salesFixture(t testing.TB) *db.Database {
	t.Helper()
	d, err := datagen.Generate(datagen.Config{
		Seed: 5, Products: 80, Orders: 60, Market: 24, Segments: 8,
		NullRate: 0.3, MarketNullRate: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// parityQueries covers identity scans, filtered scans, LIMIT-k through
// both the adaptive race and the fixed budget, and a join.
var parityQueries = []string{
	`SELECT M.seg FROM Market M`,
	`SELECT M.seg FROM Market M WHERE M.rrp * M.dis > 5`,
	`SELECT M.rrp FROM Market M WHERE M.dis >= 0.2`,
	`SELECT M.seg FROM Market M WHERE M.rrp * M.dis > 5 LIMIT 4`,
	`SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 6`,
}

func assertMeasuredEqual(t testing.TB, label string, got, want *core.SQLMeasured) {
	t.Helper()
	if got.Derivations != want.Derivations {
		t.Fatalf("%s: derivations %d, want %d", label, got.Derivations, want.Derivations)
	}
	if got.SamplesDrawn != want.SamplesDrawn || got.Rounds != want.Rounds {
		t.Fatalf("%s: race spend %d/%d, want %d/%d", label,
			got.SamplesDrawn, got.Rounds, want.SamplesDrawn, want.Rounds)
	}
	if !reflect.DeepEqual(got.NullIDs, want.NullIDs) {
		t.Fatalf("%s: null inventory %v, want %v", label, got.NullIDs, want.NullIDs)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		g, w := got.Candidates[i], want.Candidates[i]
		if !g.Tuple.Equal(w.Tuple) {
			t.Fatalf("%s: candidate %d tuple %v, want %v", label, i, g.Tuple, w.Tuple)
		}
		if math.Float64bits(g.Measure.Value) != math.Float64bits(w.Measure.Value) {
			t.Fatalf("%s: candidate %d measure bits %x (%v), want %x (%v)", label, i,
				math.Float64bits(g.Measure.Value), g.Measure.Value,
				math.Float64bits(w.Measure.Value), w.Measure.Value)
		}
		if g.Measure.Method != w.Measure.Method || g.Measure.Samples != w.Measure.Samples {
			t.Fatalf("%s: candidate %d method/samples %v/%d, want %v/%d", label, i,
				g.Measure.Method, g.Measure.Samples, w.Measure.Method, w.Measure.Samples)
		}
	}
}

// TestShardCountInvariance: the full matrix — every parity query, shard
// counts 1/2/4, and worker configurations from fully sequential to
// maximally pooled, against the single-store reference.
func TestShardCountInvariance(t *testing.T) {
	ref := salesFixture(t)
	optVariants := []core.Options{
		{Seed: 9, PoolWorkers: 1},
		{Seed: 9, PoolWorkers: 3},
		{Seed: 9, PoolWorkers: 2},
	}
	ctx := context.Background()
	for qi, qs := range parityQueries {
		q := sqlfront.MustParse(qs)
		for oi, o := range optVariants {
			want, err := core.New(o).MeasureSQL(q, ref, 0.1, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if qi < 4 && len(want.Candidates) == 0 {
				t.Fatalf("query %d produced no candidates; the fixture is too thin", qi)
			}
			for _, n := range []int{1, 2, 4} {
				st, err := shard.FromDatabase(ref, n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.MeasureSQL(ctx, core.New(o), q, 0.1, 0.25)
				if err != nil {
					t.Fatal(err)
				}
				assertMeasuredEqual(t, fmt.Sprintf("query %d, opts %d, shards %d", qi, oi, n), got, want)
			}
		}
	}
}

// TestShardedAdaptiveRaceParity: LIMIT-k with and without the adaptive
// race. The race draws samples in confidence-bound rounds; its spend
// counters and every winner's measure must survive sharding bit-for-bit.
func TestShardedAdaptiveRaceParity(t *testing.T) {
	ref := salesFixture(t)
	q := sqlfront.MustParse(`SELECT M.seg FROM Market M WHERE M.rrp * M.dis > 5 LIMIT 3`)
	for _, noAdaptive := range []bool{false, true} {
		o := core.Options{Seed: 21, NoAdaptive: noAdaptive}
		want, err := core.New(o).MeasureSQL(q, ref, 0.08, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if !noAdaptive && want.Rounds == 0 {
			t.Fatal("the LIMIT query did not route through the race; the fixture is too thin")
		}
		for _, n := range []int{2, 4} {
			st, err := shard.FromDatabase(ref, n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.MeasureSQL(context.Background(), core.New(o), q, 0.08, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			assertMeasuredEqual(t, fmt.Sprintf("noAdaptive=%v shards=%d", noAdaptive, n), got, want)
		}
	}
}

// TestShardedStreamParity: the streaming form delivers the same
// candidates at the same consecutive indices as the unsharded stream.
func TestShardedStreamParity(t *testing.T) {
	ref := salesFixture(t)
	q := sqlfront.MustParse(`SELECT M.seg FROM Market M WHERE M.rrp * M.dis > 5 LIMIT 4`)
	o := core.Options{Seed: 9, PoolWorkers: 2}
	want, err := core.New(o).MeasureSQL(q, ref, 0.1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.FromDatabase(ref, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	var got []core.MeasuredCandidate
	info, err := st.MeasureSQLStream(context.Background(), core.New(o), q, 0.1, 0.25,
		func(idx int, c core.MeasuredCandidate) error {
			if idx != next {
				t.Fatalf("yield idx %d, want %d", idx, next)
			}
			next++
			got = append(got, c)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if info.Count != len(want.Candidates) || len(got) != len(want.Candidates) {
		t.Fatalf("streamed %d candidates (info %d), want %d", len(got), info.Count, len(want.Candidates))
	}
	if info.Derivations != want.Derivations {
		t.Fatalf("derivations %d, want %d", info.Derivations, want.Derivations)
	}
	for i, c := range got {
		w := want.Candidates[i]
		if !c.Tuple.Equal(w.Tuple) ||
			math.Float64bits(c.Measure.Value) != math.Float64bits(w.Measure.Value) {
			t.Fatalf("candidate %d diverged: (%v, %v) vs (%v, %v)",
				i, c.Tuple, c.Measure.Value, w.Tuple, w.Measure.Value)
		}
	}
}

// fuzzJoinQueries are the joins TestShardParityFuzz draws from every
// round; between them they read all three relations.
var fuzzJoinQueries = []string{
	parityQueries[4],
	datagen.NeverKnowinglyUndersold,
	datagen.UnfairDiscount,
}

// TestShardParityFuzz: randomized insert workload — mixed batches with
// duplicates and fresh nulls land identically on a plain database and on
// stores of every shard count, in all three relations; after every
// round, measured results — of one query drawn from parityQueries and
// one join — must stay bit-identical across all of them, under rotating
// worker configs.
func TestShardParityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ref := salesFixture(t)
	counts := []int{1, 2, 4}
	stores := make([]*shard.Store, len(counts))
	for i, n := range counts {
		st, err := shard.FromDatabase(ref, n)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	numOrNull := func(v float64) value.Value {
		if rng.Intn(3) == 0 {
			return ref.FreshNumNull()
		}
		return value.Num(v)
	}
	seg := func() value.Value { return value.Base(fmt.Sprintf("seg%d", rng.Intn(6))) }
	prod := func() value.Value { return value.Base(fmt.Sprintf("p%d", rng.Intn(90))) }
	randTuple := map[string]func() value.Tuple{
		"Market": func() value.Tuple {
			return value.Tuple{seg(), numOrNull(float64(rng.Intn(200)) / 2), value.Num(float64(rng.Intn(10)) / 10)}
		},
		"Products": func() value.Tuple {
			return value.Tuple{
				prod(), seg(),
				numOrNull(float64(rng.Intn(200)) / 2), numOrNull(0.5 + float64(rng.Intn(5))/10),
			}
		},
		"Orders": func() value.Tuple {
			return value.Tuple{
				value.Base(fmt.Sprintf("o%d", rng.Intn(500))), prod(),
				numOrNull(float64(1 + rng.Intn(50))), numOrNull(0.5 + float64(rng.Intn(20))/10),
			}
		},
	}
	rels := []string{"Market", "Products", "Orders", "Market"}
	ctx := context.Background()
	const rounds = 5
	for round := 0; round < rounds; round++ {
		for _, rel := range rels {
			batch := make([]value.Tuple, 1+rng.Intn(3))
			for j := range batch {
				batch[j] = randTuple[rel]()
				if j > 0 && rng.Intn(2) == 0 {
					batch[j] = batch[0].Clone() // in-batch duplicate
				}
			}
			if err := ref.InsertBatch(rel, batch); err != nil {
				t.Fatal(err)
			}
			for _, st := range stores {
				if err := st.InsertBatch(rel, batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		o := core.Options{Seed: int64(1 + round), PoolWorkers: round % 3}
		for _, qs := range []string{
			parityQueries[rng.Intn(len(parityQueries))],
			fuzzJoinQueries[rng.Intn(len(fuzzJoinQueries))],
		} {
			q := sqlfront.MustParse(qs)
			want, err := core.New(o).MeasureSQL(q, ref, 0.12, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range stores {
				got, err := st.MeasureSQL(ctx, core.New(o), q, 0.12, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				assertMeasuredEqual(t, fmt.Sprintf("round %d, shards %d, query %q", round, counts[i], qs), got, want)
			}
		}
	}
}
