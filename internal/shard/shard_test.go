package shard_test

// Unit tests of the sharded store: routing stability, scatter/gather
// parity with a single store, routing-log order preservation, and the
// incrementally extended gather. The shard-count invariance fuzz — the
// PR's acceptance criterion — lives in parity_test.go.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/sqlfront"
	"repro/internal/value"
)

func twoColSchema(t *testing.T) *schema.Schema {
	t.Helper()
	r, err := schema.NewRelation("R",
		schema.Column{Name: "a", Type: schema.Base},
		schema.Column{Name: "x", Type: schema.Num},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schema.New(r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHashContentStability(t *testing.T) {
	a := value.Tuple{value.Base("seg1"), value.Num(2.5)}
	b := value.Tuple{value.Base("seg1"), value.Num(2.5)}
	if shard.Hash(a) != shard.Hash(b) {
		t.Fatal("equal tuples hashed differently")
	}
	c := value.Tuple{value.Base("seg2"), value.Num(2.5)}
	if shard.Hash(a) == shard.Hash(c) {
		t.Fatal("distinct tuples collided (possible, but not on this fixture)")
	}

	// All NaN payloads are one candidate, so they must co-locate.
	nan1 := value.Tuple{value.Base("s"), value.Num(math.NaN())}
	nan2 := value.Tuple{value.Base("s"), value.Num(math.Float64frombits(0x7ff8000000000042))}
	if shard.Hash(nan1) != shard.Hash(nan2) {
		t.Fatal("NaN payloads hashed differently")
	}
	// -0 and +0 are distinct candidates and may land apart.
	negz := value.Tuple{value.Base("s"), value.Num(math.Copysign(0, -1))}
	posz := value.Tuple{value.Base("s"), value.Num(0)}
	if shard.Hash(negz) == shard.Hash(posz) {
		t.Fatal("-0 and +0 hashed alike; they are distinct candidates")
	}
}

func TestShardOfBounds(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for i := 0; i < 200; i++ {
			tu := value.Tuple{value.Base(fmt.Sprint("k", i)), value.Num(float64(i))}
			if s := shard.ShardOf(tu, n); s < 0 || s >= n {
				t.Fatalf("ShardOf(_, %d) = %d out of range", n, s)
			}
		}
	}
}

func TestNewRejectsBadCounts(t *testing.T) {
	s := twoColSchema(t)
	for _, n := range []int{0, -1, 257} {
		if _, err := shard.New(s, n); err == nil {
			t.Fatalf("New(s, %d) succeeded", n)
		}
	}
}

// dump renders every observable the gather path must preserve.
func dump(d *db.Database) map[string][]string {
	out := map[string][]string{}
	for _, rel := range d.Schema().Relations() {
		var rows []string
		for _, tu := range d.Tuples(rel.Name) {
			rows = append(rows, tu.String())
		}
		out[rel.Name] = rows
	}
	out["__nulls"] = []string{fmt.Sprint(d.BaseNulls()), fmt.Sprint(d.NumNulls())}
	return out
}

// TestGatherParity: interleaved batches into a sharded store and a plain
// database; Gather must reproduce the plain database exactly — same rows
// in the same global order, same null inventories.
func TestGatherParity(t *testing.T) {
	s := twoColSchema(t)
	for _, n := range []int{1, 2, 4} {
		st, err := shard.New(s, n)
		if err != nil {
			t.Fatal(err)
		}
		ref := db.New(s)
		for batch := 0; batch < 10; batch++ {
			tuples := make([]value.Tuple, 1+batch%3)
			for j := range tuples {
				// Mix constants, duplicates, and nulls across batches.
				switch (batch + j) % 4 {
				case 0:
					tuples[j] = value.Tuple{value.Base("dup"), value.Num(1)}
				case 1:
					tuples[j] = value.Tuple{value.Base(fmt.Sprint("k", batch)), value.Num(float64(batch) / 3)}
				case 2:
					tuples[j] = value.Tuple{value.NullBase(batch), value.Num(float64(j))}
				default:
					tuples[j] = value.Tuple{value.Base("n"), value.NullNum(100 + batch)}
				}
			}
			if err := st.InsertBatch("R", tuples); err != nil {
				t.Fatal(err)
			}
			if err := ref.InsertBatch("R", tuples); err != nil {
				t.Fatal(err)
			}
		}
		g, err := st.Gather()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dump(g), dump(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: gather diverged\n got %v\nwant %v", n, got, want)
		}
		if st.Size() != ref.Size() || st.Len("R") != ref.Len("R") {
			t.Fatalf("n=%d: size %d/%d, want %d", n, st.Size(), st.Len("R"), ref.Size())
		}
		total := 0
		for _, sz := range st.ShardSizes() {
			total += sz
		}
		if total != ref.Size() {
			t.Fatalf("n=%d: shard sizes sum to %d, want %d", n, total, ref.Size())
		}
	}
}

// TestGatherCachePerVersion: repeated gathers of an unchanged store
// return the same snapshot; a write invalidates it.
func TestGatherCachePerVersion(t *testing.T) {
	st, err := shard.New(twoColSchema(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("R", value.Tuple{value.Base("a"), value.Num(1)}); err != nil {
		t.Fatal(err)
	}
	g1, err := st.Gather()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := st.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("unchanged store re-materialized its gather")
	}
	if err := st.Insert("R", value.Tuple{value.Base("b"), value.Num(2)}); err != nil {
		t.Fatal(err)
	}
	g3, err := st.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 || g3.Size() != 2 {
		t.Fatal("gather did not refresh after a write")
	}
}

// TestGatherExtendsPreviousGather: a gather after a write appends the
// new rows to the merged database the previous gather left behind — its
// version counts the gathers that found new rows, where a rebuild from
// scratch would read 1 every time — and the snapshots handed out
// earlier keep their contents.
func TestGatherExtendsPreviousGather(t *testing.T) {
	st, err := shard.New(twoColSchema(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := db.New(st.Schema())
	var gathers []*db.Database
	for i := 1; i <= 3; i++ {
		batch := []value.Tuple{
			{value.Base(fmt.Sprint("k", i)), value.Num(float64(i))},
			{value.Base("n"), value.NullNum(100 + i)},
		}
		if err := st.InsertBatch("R", batch); err != nil {
			t.Fatal(err)
		}
		if err := ref.InsertBatch("R", batch); err != nil {
			t.Fatal(err)
		}
		g, err := st.Gather()
		if err != nil {
			t.Fatal(err)
		}
		if g.Version() != int64(i) {
			t.Fatalf("gather %d: merged database at version %d, want %d (rebuilt instead of extended?)", i, g.Version(), i)
		}
		if got, want := dump(g), dump(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("gather %d diverged\n got %v\nwant %v", i, got, want)
		}
		gathers = append(gathers, g)
	}
	for i, g := range gathers {
		if g.Len("R") != 2*(i+1) || len(g.NumNulls()) != i+1 {
			t.Fatalf("gather %d changed under later gathers: %d rows, nulls %v", i+1, g.Len("R"), g.NumNulls())
		}
	}
}

// TestGatherConcurrentWithWrites (meaningful under -race): readers
// gather and measure while a writer commits batches alternately into
// two relations. Every gathered snapshot must be a committed store
// version — per relation an exact prefix of the insert order, the two
// prefixes cut at the same batch boundary.
func TestGatherConcurrentWithWrites(t *testing.T) {
	cols := []schema.Column{{Name: "a", Type: schema.Base}, {Name: "x", Type: schema.Num}}
	s := schema.MustNew(schema.MustRelation("R", cols...), schema.MustRelation("S", cols...))
	st, err := shard.New(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Batch b holds 1+b%3 rows of relation rels[b%2]; rows[rel] is the
	// reference insert order, lens[v] the relation lengths at version v.
	const batches = 60
	rels := []string{"R", "S"}
	rows := map[string][]string{}
	feed := make([][]value.Tuple, batches)
	lens := make([][2]int, batches+1)
	for b := range feed {
		rel := rels[b%2]
		for j := 0; j <= b%3; j++ {
			tu := value.Tuple{value.Base(fmt.Sprint("k", b%7)), value.Num(float64(j))}
			if (b+j)%4 == 0 {
				tu[1] = value.NullNum(1000 + 10*b + j)
			}
			feed[b] = append(feed[b], tu)
			rows[rel] = append(rows[rel], tu.String())
		}
		lens[b+1] = lens[b]
		lens[b+1][b%2] += len(feed[b])
	}
	committed := func(r, s int) error {
		for _, l := range lens {
			if l == [2]int{r, s} {
				return nil
			}
		}
		return fmt.Errorf("read saw %d R rows and %d S rows: not a committed version", r, s)
	}
	gatherRead := func() error {
		g, err := st.Gather()
		if err != nil {
			return err
		}
		for _, rel := range rels {
			for i, tu := range g.Tuples(rel) {
				if tu.String() != rows[rel][i] {
					return fmt.Errorf("%s row %d is %v, want %s", rel, i, tu, rows[rel][i])
				}
			}
		}
		return committed(g.Len("R"), g.Len("S"))
	}
	// A cross product's derivation count is |R|·|S| of the one snapshot
	// the engine ran against.
	q := sqlfront.MustParse(`SELECT R.a FROM R R, S S`)
	measureRead := func() error {
		res, err := st.MeasureSQL(context.Background(), core.New(core.Options{Seed: 3}), q, 0.25, 0.25)
		if err != nil {
			return err
		}
		for _, l := range lens {
			if l[0]*l[1] == res.Derivations {
				return nil
			}
		}
		return fmt.Errorf("measure saw %d derivations: not a committed version", res.Derivations)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	reads := []func() error{gatherRead, gatherRead, measureRead}
	errs := make(chan error, len(reads))
	for _, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one more read, of the final state
				default:
				}
				if err := read(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for b, batch := range feed {
		if err := st.InsertBatch(rels[b%2], batch); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if g, err := st.Gather(); err != nil || [2]int{g.Len("R"), g.Len("S")} != lens[batches] {
		t.Fatalf("final gather: %v, want %v rows", err, lens[batches])
	}
}

// TestEqualTuplesColocate: duplicates of one tuple all land on one shard,
// so duplicate aggregation stays shard-local.
func TestEqualTuplesColocate(t *testing.T) {
	st, err := shard.New(twoColSchema(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	tu := value.Tuple{value.Base("dup"), value.Num(3.25)}
	for i := 0; i < 12; i++ {
		if err := st.Insert("R", tu); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := 0
	for _, sz := range st.ShardSizes() {
		if sz > 0 {
			nonEmpty++
			if sz != 12 {
				t.Fatalf("duplicates split across shards: sizes %v", st.ShardSizes())
			}
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("duplicates landed on %d shards, want 1", nonEmpty)
	}
}

// TestFromDatabase: scattering an existing database preserves it.
func TestFromDatabase(t *testing.T) {
	ref, err := datagen.Generate(datagen.Config{
		Seed: 11, Products: 50, Orders: 40, Market: 16, Segments: 6,
		NullRate: 0.3, MarketNullRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.FromDatabase(ref, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := st.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dump(g), dump(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromDatabase round trip diverged\n got %v\nwant %v", got, want)
	}
	if st.NumShards() != 4 {
		t.Fatalf("NumShards = %d", st.NumShards())
	}
}

// TestBadBatchIsAtomic: a batch with one invalid tuple commits nothing
// anywhere and leaves the version unchanged.
func TestBadBatchIsAtomic(t *testing.T) {
	st, err := shard.New(twoColSchema(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	v := st.Version()
	batch := []value.Tuple{
		{value.Base("ok"), value.Num(1)},
		{value.Base("bad")}, // arity mismatch
	}
	if err := st.InsertBatch("R", batch); err == nil {
		t.Fatal("invalid batch committed")
	}
	if st.Size() != 0 || st.Version() != v {
		t.Fatalf("partial commit: size %d, version %d->%d", st.Size(), v, st.Version())
	}
}
