// Package shard hash-partitions relations across N stores and serves
// queries from one merged copy of them.
//
// Rows route to shards by a stable content hash at insert time (Hash):
// equal tuples always land on the same shard. The store keeps a
// per-relation routing log — the shard of every row in global insert
// order — which lets it reassemble the exact single-store state: Gather
// returns the merged database with every relation's rows in their
// original order, brought up to date by appending the rows the log
// gained since the previous gather. Every query (MeasureSQL,
// MeasureSQLStream) is the engine's own pipeline over that database, so
// results are bit-identical to an unsharded database holding the same
// rows, for every shard count.
//
// The store is in-memory and in-process (the `arithdbd -shards=N`
// topology), and it reads from a full merged copy: it buys no read
// speed or memory over an unsharded server. What it is for is placement
// parity with client.Sharded — the same Hash, the same per-shard
// contents — and the routing-log merge a fleet-level gather would need.
// Durable sharding composes at the fleet level: run one arithdbd per
// shard (its own WAL and -replica-of chain) and route writes with
// client.Sharded.
package shard

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/value"
)

// fnv-1a constants, matching hash/fnv (inlined so the hash is
// explicitly pinned: routing must stay stable across processes and
// releases, because a fleet's data placement depends on it).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is the stable routing hash of a tuple: FNV-1a over a canonical
// encoding of the tuple's content (kind tag + payload per value). It
// depends only on the tuple's values — never on dictionary codes, row
// positions, or process state — so a row hashes alike on every node.
// Tuples that compare equal (value.Tuple.Key) hash equal: every NaN
// payload collapses to one pattern, while the sign of zero is kept,
// mirroring the candidate grouping keys of the executor.
func Hash(t value.Tuple) uint64 {
	h := uint64(offset64)
	for _, v := range t {
		h = (h ^ uint64(v.Kind())) * prime64
		switch v.Kind() {
		case value.BaseConst:
			s := v.Str()
			h = (h ^ uint64(len(s))) * prime64
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * prime64
			}
		case value.NumConst:
			h = (h ^ canonNumBits(v.Float())) * prime64
		case value.BaseNull, value.NumNull:
			h = (h ^ uint64(v.NullID())) * prime64
		}
	}
	return h
}

// canonNumBits canonicalizes a float payload for hashing: all NaNs
// collapse to one bit pattern (they group as one candidate), -0 and +0
// stay distinct (they are distinct candidates).
func canonNumBits(v float64) uint64 {
	if math.IsNaN(v) {
		return 0x7ff8000000000001
	}
	return math.Float64bits(v)
}

// ShardOf returns the shard owning a tuple under an n-way split.
func ShardOf(t value.Tuple, n int) int {
	if n <= 1 {
		return 0
	}
	return int(Hash(t) % uint64(n))
}

// Store is an n-way hash-sharded database: writes scatter rows to
// per-shard columnar stores, reads run over the gathered database. A
// Store serializes its own writes; reads (Gather, the measure methods,
// stats) are safe concurrently with writes — they capture immutable
// per-shard snapshots under the store lock.
type Store struct {
	mu     sync.RWMutex
	schema *schema.Schema
	shards []*db.Database

	// order is the routing log: per relation, the shard of every row in
	// global insert order. It is what lets Gather reassemble the exact
	// single-store row order (and with it, bit-identical candidate
	// enumeration) from the per-shard subsequences.
	order map[string][]uint8

	version int64

	// merged is the gathered database: per relation, a prefix of the
	// routing log's rows in log order. Gather appends what the log has
	// gained and publishes a snapshot; gatherMu serializes the gathers
	// (merged's only writers), apart from st.mu so that merging never
	// blocks a write.
	gatherMu sync.Mutex
	merged   *db.Database
}

// maxShards bounds the fan-out; the routing log stores shard ids as
// bytes.
const maxShards = 256

// New returns an empty store sharding the schema's relations n ways.
func New(s *schema.Schema, n int) (*Store, error) {
	if n < 1 || n > maxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", n, maxShards)
	}
	st := &Store{schema: s, shards: make([]*db.Database, n), order: make(map[string][]uint8), merged: db.New(s)}
	for i := range st.shards {
		st.shards[i] = db.New(s)
	}
	return st, nil
}

// FromDatabase returns a store holding the database's rows, scattered
// across n shards in their original relation order — so queries against
// the store are bit-identical to queries against d itself.
func FromDatabase(d *db.Database, n int) (*Store, error) {
	st, err := New(d.Schema(), n)
	if err != nil {
		return nil, err
	}
	for _, r := range d.Schema().Relations() {
		ts := d.Tuples(r.Name)
		if len(ts) == 0 {
			continue
		}
		if err := st.InsertBatch(r.Name, ts); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Schema returns the store's schema.
func (st *Store) Schema() *schema.Schema { return st.schema }

// NumShards returns the shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// Version reports the number of committed batches. Two reads returning
// the same version bracket an unchanged store.
func (st *Store) Version() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.version
}

// Size returns the total number of rows across all shards.
func (st *Store) Size() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, d := range st.shards {
		n += d.Size()
	}
	return n
}

// Len returns the number of rows in the named relation across all
// shards (the routing log holds one entry per row).
func (st *Store) Len(rel string) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.order[rel])
}

// ShardSizes returns the per-shard row counts — the balance a hash
// split actually achieved.
func (st *Store) ShardSizes() []int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]int, len(st.shards))
	for i, d := range st.shards {
		out[i] = d.Size()
	}
	return out
}

// Insert adds one tuple to the named relation on its hash shard.
func (st *Store) Insert(rel string, t value.Tuple) error {
	return st.InsertBatch(rel, []value.Tuple{t})
}

// InsertBatch scatters a batch across the shards as one atomic store
// commit: every tuple is validated before the first is appended
// anywhere (validation is schema-only, so checking against one shard
// decides for all), then each shard's sub-batch commits in arrival
// order and the routing log records the interleaving.
func (st *Store) InsertBatch(rel string, tuples []value.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.shards[0].CheckBatch(rel, tuples); err != nil {
		return err
	}
	n := len(st.shards)
	sub := make([][]value.Tuple, n)
	route := make([]uint8, len(tuples))
	for i, t := range tuples {
		s := ShardOf(t, n)
		sub[s] = append(sub[s], t)
		route[i] = uint8(s)
	}
	for s, ts := range sub {
		if len(ts) == 0 {
			continue
		}
		if err := st.shards[s].InsertBatch(rel, ts); err != nil {
			// Validation already passed, so this is a shard-store
			// invariant failure, not a bad batch; surface it loudly.
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	st.order[rel] = append(st.order[rel], route...)
	st.version++
	return nil
}

// view is a consistent read-side cut of the store: immutable per-shard
// snapshots plus the routing log headers, captured together under the
// store lock.
type view struct {
	shards []*db.Database
	order  map[string][]uint8
}

// snapshotView captures a consistent view for readers. The routing-log
// slices are append-only, so sharing their headers is safe: a
// concurrent writer either appends in place beyond the captured length
// or reallocates, neither of which a holder of the old header observes.
func (st *Store) snapshotView() view {
	st.mu.RLock()
	defer st.mu.RUnlock()
	v := view{
		shards: make([]*db.Database, len(st.shards)),
		order:  make(map[string][]uint8, len(st.order)),
	}
	for i, d := range st.shards {
		v.shards[i] = d.Snapshot()
	}
	for rel, o := range st.order {
		v.order[rel] = o
	}
	return v
}

// Gather returns the merged database: every relation's rows in their
// original global insert order, exactly as an unsharded database
// receiving the same inserts would hold them. The result is an immutable
// snapshot of one committed store version; an unchanged store returns
// the same snapshot again.
//
// A gather costs the rows inserted since the previous one, not the
// store: it appends the routing log's new suffix to the long-lived
// merged database, whose equality indexes and null inventories db
// maintains incrementally, and publishes a copy-on-write snapshot.
func (st *Store) Gather() (*db.Database, error) {
	st.gatherMu.Lock()
	defer st.gatherMu.Unlock()
	v := st.snapshotView()
	for _, r := range st.schema.Relations() {
		suffix := v.order[r.Name][st.merged.Len(r.Name):]
		if len(suffix) == 0 {
			continue
		}
		// A shard's rows are a subsequence of the log, so its unmerged
		// rows are its last ones: count back from its length.
		next := make([]int, len(v.shards))
		for s, d := range v.shards {
			next[s] = d.Len(r.Name)
		}
		for _, s := range suffix {
			next[s]--
		}
		rows := make([]value.Tuple, len(suffix))
		for i, s := range suffix {
			rows[i] = v.shards[s].Row(r.Name, next[s])
			next[s]++
		}
		if err := st.merged.InsertBatch(r.Name, rows); err != nil {
			return nil, fmt.Errorf("shard: gather %s: %w", r.Name, err)
		}
	}
	return st.merged.Snapshot(), nil
}

// MeasureSQLStream runs a query over the gathered database and streams
// measured candidates to yield in candidate order: it is
// core.Engine.MeasureSQLStream, contract and bits, over an unsharded
// database holding the same rows in the same insert order. The engine
// carries the caller's toggles and compiled-kernel cache and must not be
// used concurrently, exactly as with its own methods.
func (st *Store) MeasureSQLStream(ctx context.Context, eng *core.Engine, q *sqlast.Query, eps, delta float64, yield func(idx int, c core.MeasuredCandidate) error) (*core.SQLStreamInfo, error) {
	g, err := st.Gather()
	if err != nil {
		return nil, err
	}
	return eng.MeasureSQLStream(ctx, q, g, eps, delta, yield)
}

// MeasureSQL is the buffered form of MeasureSQLStream.
func (st *Store) MeasureSQL(ctx context.Context, eng *core.Engine, q *sqlast.Query, eps, delta float64) (*core.SQLMeasured, error) {
	g, err := st.Gather()
	if err != nil {
		return nil, err
	}
	return eng.MeasureSQLContext(ctx, q, g, eps, delta)
}
