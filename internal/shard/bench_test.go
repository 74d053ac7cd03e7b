package shard_test

// BenchmarkShardedScatterGather prices serving reads from a sharded
// store against the single-store pipeline. (The name predates the
// removal of the scatter-gather coordinator; README and
// scripts/alloc_budget.txt cite it.) The store runs every query over
// its gathered database, so `shards-N` is `single` plus bringing the
// gather up to date — a no-op on an unchanged store — and the two must
// stay within noise of each other in time and allocations.
// `post-insert` is the case where the gather has work to do: one
// single-row batch, then a join. It guards the incremental gather — the
// merged database and its equality indexes are extended by the new row,
// not rebuilt — against the same insert-then-join on a plain database.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/shard"
	"repro/internal/sqlfront"
	"repro/internal/value"
)

func benchFixture(b *testing.B) *db.Database {
	b.Helper()
	d, err := datagen.Generate(datagen.Config{
		Seed: 5, Products: 200, Orders: 150, Market: 120, Segments: 10,
		NullRate: 0.3, MarketNullRate: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkShardedScatterGather(b *testing.B) {
	ref := benchFixture(b)
	q := sqlfront.MustParse(`SELECT M.seg FROM Market M WHERE M.rrp * M.dis > 5`)
	const eps, delta = 0.25, 0.25
	ctx := context.Background()

	b.Run("single", func(b *testing.B) {
		eng := core.New(core.Options{Seed: 9})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.MeasureSQL(q, ref, eps, delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 2, 4} {
		st, err := shard.FromDatabase(ref, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			eng := core.New(core.Options{Seed: 9})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.MeasureSQL(ctx, eng, q, eps, delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// A pure equality join: no candidate needs sampling, so the time is
	// the gather, the plan and the indexed enumeration.
	join := sqlfront.MustParse(`SELECT P.seg FROM Products P, Market M WHERE P.seg = M.seg`)
	// The inserted rows join with nothing, so the query's work stays the
	// same however long the benchmark runs.
	row := func(i int) []value.Tuple {
		return []value.Tuple{{value.Base("unsold"), value.Num(float64(i)), value.Num(0.5)}}
	}
	plain := ref.Clone()
	st, err := shard.FromDatabase(ref, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		insert func([]value.Tuple) error
		read   func(*core.Engine) error
	}{
		{"post-insert/single",
			func(rows []value.Tuple) error { return plain.InsertBatch("Market", rows) },
			func(eng *core.Engine) error {
				_, err := eng.MeasureSQL(join, plain.Snapshot(), eps, delta)
				return err
			}},
		{"post-insert/shards-4",
			func(rows []value.Tuple) error { return st.InsertBatch("Market", rows) },
			func(eng *core.Engine) error {
				_, err := st.MeasureSQL(ctx, eng, join, eps, delta)
				return err
			}},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng := core.New(core.Options{Seed: 9})
			// Warm read: the join's equality index (and the store's first
			// gather, of every row) exist before the clock starts, so an
			// iteration pays for extending them, not for building them.
			if err := c.read(eng); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.insert(row(i)); err != nil {
					b.Fatal(err)
				}
				if err := c.read(eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
