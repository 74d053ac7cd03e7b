package server

// Sharded-mode server tests: a -shards=N server must be
// indistinguishable on the wire from an unsharded one — bit-identical
// measures, streaming included — while /v1/info additionally reports the
// topology, and writes scatter through the store.

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sqlfront"
	"repro/internal/value"
	"repro/internal/wire"
)

func newShardedStore(t testing.TB, n int) *shard.Store {
	t.Helper()
	st, err := shard.FromDatabase(testDB(), n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardedServerMeasureParity: every e2e workload through a 3-shard
// server equals the direct single-store pipeline, buffered and streamed.
func TestShardedServerMeasureParity(t *testing.T) {
	opts := core.Options{Seed: 7}
	_, c, _ := newTestServer(t, Config{Engine: opts, Sharded: newShardedStore(t, 3)})
	ctx := context.Background()
	for _, src := range testWorkloads {
		want := directMeasure(t, opts, src, 0.05, 0.25)
		got, err := c.MeasureSQL(ctx, src, 0.05, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		label := "sharded " + src[:min(24, len(src))]
		assertParity(t, label, got, want)

		var streamed []wire.MeasuredCandidate
		done, err := c.MeasureSQLStream(ctx, src, 0.05, 0.25, func(ev wire.Event) error {
			streamed = append(streamed, *ev.Candidate)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if done.Count != len(want.Candidates) || len(streamed) != len(want.Candidates) {
			t.Fatalf("%s: streamed %d (done %d), want %d", label, len(streamed), done.Count, len(want.Candidates))
		}
		for i, wc := range streamed {
			assertCandidateParity(t, label+" (stream)", i, wc, want.Candidates[i])
		}
	}
}

// TestShardedServerInsertAndInfo: writes scatter through the store,
// /v1/info reports the topology, and post-write measures still match an
// unsharded reference that received the same rows.
func TestShardedServerInsertAndInfo(t *testing.T) {
	opts := core.Options{Seed: 7}
	st := newShardedStore(t, 4)
	_, c, _ := newTestServer(t, Config{Engine: opts, Sharded: st})
	ctx := context.Background()

	ref := testDB().Clone()
	batch := []value.Tuple{
		{value.Base("seg1"), value.Num(10), value.Num(0.5)},
		{value.Base("seg2"), value.NullNum(9000), value.Num(0.25)},
		{value.Base("seg1"), value.Num(10), value.Num(0.5)}, // duplicate
	}
	resp, err := c.Insert(ctx, "Market", batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.InsertBatch("Market", batch); err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != len(batch) || resp.Tuples != ref.Len("Market") {
		t.Fatalf("insert ack %+v, want %d into %d", resp, len(batch), ref.Len("Market"))
	}

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Sharding == nil || info.Sharding.NumShards != 4 {
		t.Fatalf("info.Sharding = %+v, want 4 shards", info.Sharding)
	}
	total := 0
	for _, sz := range info.Sharding.ShardSizes {
		total += sz
	}
	if total != ref.Size() || info.Tuples != ref.Size() {
		t.Fatalf("shard sizes %v (sum %d) and tuples %d, want %d rows",
			info.Sharding.ShardSizes, total, info.Tuples, ref.Size())
	}

	// Post-write reads: the scattered rows measure bit-identically to the
	// unsharded reference holding the same rows in the same order — a
	// single-relation read and a join over the written relation, buffered
	// and streamed.
	for _, src := range []string{
		`SELECT M.seg FROM Market M WHERE M.rrp * M.dis > 2 LIMIT 5`,
		`SELECT P.seg FROM Products P, Market M
			WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 6`,
	} {
		want, err := core.New(opts).MeasureSQL(sqlfront.MustParse(src), ref, 0.1, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.MeasureSQL(ctx, src, 0.1, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		assertParity(t, "post-insert", got, want)
		for i, wc := range got.Candidates {
			m, err := wc.Measure.Result()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(m.Value) != math.Float64bits(want.Candidates[i].Measure.Value) {
				t.Fatalf("candidate %d bits diverged after insert", i)
			}
		}
		var streamed []wire.MeasuredCandidate
		done, err := c.MeasureSQLStream(ctx, src, 0.1, 0.25, func(ev wire.Event) error {
			streamed = append(streamed, *ev.Candidate)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if done.Count != len(want.Candidates) || len(streamed) != len(want.Candidates) {
			t.Fatalf("post-insert: streamed %d (done %d), want %d", len(streamed), done.Count, len(want.Candidates))
		}
		for i, wc := range streamed {
			assertCandidateParity(t, "post-insert (stream)", i, wc, want.Candidates[i])
		}
	}
}

// TestShardedConfigValidation: the sharded store is exclusive with every
// other data source — it shards in-process and composes with durability
// only at the fleet level.
func TestShardedConfigValidation(t *testing.T) {
	st := newShardedStore(t, 2)
	if _, err := New(Config{Sharded: st, DB: testDB()}); err == nil {
		t.Fatal("Sharded+DB accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Sharded: st}); err != nil {
		t.Fatalf("sharded-only config rejected: %v", err)
	}
}
