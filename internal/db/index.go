package db

import (
	"maps"

	"repro/internal/schema"
	"repro/internal/value"
)

// EqIndex is a per-column equality index: for each distinct column value,
// the ordinals (insertion positions) of the tuples carrying it, ascending.
// Entries are keyed by the columnar equality codes, so a build is one
// sequential scan over the column's flat arrays and a probe is one integer
// map lookup. A marked null indexes — and therefore equi-joins — only with
// itself, the bijective-valuation regime of Prop 5.2. The index is owned
// by the database and must not be modified.
type EqIndex struct {
	// base groups base-column rows by packed code (dictID<<1 for
	// constants, nullID<<1|1 for nulls); nil for numerical columns.
	base map[int32][]int32
	// num and nulls group numerical-column rows by canonical constant bit
	// pattern and by null ID respectively; nil for base columns.
	num   map[uint64][]int32
	nulls map[int32][]int32
}

// Base returns the row ordinals carrying the given packed base code.
func (ix *EqIndex) Base(code int32) []int32 { return ix.base[code] }

// Lookup returns the row ordinals whose column value equals v — the
// boundary-type probe used by tests and tools (the executor probes Base
// directly).
func (ix *EqIndex) Lookup(d *Database, v value.Value) []int32 {
	switch v.Kind() {
	case value.BaseConst:
		code, ok := d.LookupBaseCode(v.Str())
		if !ok {
			return nil
		}
		return ix.base[code]
	case value.BaseNull:
		return ix.base[int32(v.NullID())<<1|1]
	case value.NumConst:
		return ix.num[canonFloatBits(v.Float())]
	default:
		return ix.nulls[int32(v.NullID())]
	}
}

// Distinct returns the number of distinct keys in the index — the
// per-column cardinality statistic the planner's cost-based join ordering
// uses to estimate join fanout. Incremental maintenance keeps it fresh:
// an insert updates the group maps in place, so the planner's estimates
// track the live relation without a rebuild.
func (ix *EqIndex) Distinct() int { return len(ix.base) + len(ix.num) + len(ix.nulls) }

// clone returns a copy-on-write duplicate: fresh group maps over the
// shared (append-only) group slices. The writer appends rows to the
// clone's groups; a snapshot holding the original never observes them —
// its map still carries the shorter slice headers.
func (ix *EqIndex) clone() *EqIndex {
	return &EqIndex{
		base:  maps.Clone(ix.base),
		num:   maps.Clone(ix.num),
		nulls: maps.Clone(ix.nulls),
	}
}

// addRow appends one freshly inserted row to its group, keyed exactly as
// BuildIndex keys a full scan. Rows arrive in ascending ordinal order, so
// groups stay ascending. code is the row's packed base code (base
// columns) or null ID (NumNull rows); it is ignored for NumConst rows.
func (ix *EqIndex) addRow(v value.Value, code int32, row int32) {
	switch v.Kind() {
	case value.BaseConst, value.BaseNull:
		ix.base[code] = append(ix.base[code], row)
	case value.NumConst:
		bits := canonFloatBits(v.Float())
		ix.num[bits] = append(ix.num[bits], row)
	default:
		ix.nulls[code] = append(ix.nulls[code], row)
	}
}

type indexKey struct {
	rel string
	col int
}

// BuildIndex builds an equality index of the given relation column with
// one sequential scan, without touching the database's cache. Use Index
// for the cached variant.
// The group maps are allocated (from the schema) even when the relation
// has no rows yet, so an index cached while the relation was empty can
// be extended in place by later inserts.
func (d *Database) BuildIndex(rel string, col int) *EqIndex {
	ix := &EqIndex{}
	r := d.schema.Relation(rel)
	if r == nil || col < 0 || col >= len(r.Columns) {
		return ix
	}
	tb := d.table(rel)
	if r.Columns[col].Type == schema.Base {
		ix.base = make(map[int32][]int32)
		if tb == nil {
			return ix
		}
		for i, code := range tb.cols[col].codes {
			ix.base[code] = append(ix.base[code], int32(i))
		}
		return ix
	}
	ix.num = make(map[uint64][]int32)
	ix.nulls = make(map[int32][]int32)
	if tb == nil {
		return ix
	}
	c := &tb.cols[col]
	for i, k := range c.kinds {
		if k == value.NumConst {
			bits := canonFloatBits(c.nums[i])
			ix.num[bits] = append(ix.num[bits], int32(i))
		} else {
			ix.nulls[c.codes[i]] = append(ix.nulls[c.codes[i]], int32(i))
		}
	}
	return ix
}

// Index returns the equality index of the given relation column, building
// it on first use and caching it for the lifetime of the database: an
// insert extends the cached groups in place (copy-on-write when a
// snapshot shares them) instead of dropping them. Concurrent callers are
// safe; each (relation, column) pair is built at most once.
//
// An index built lazily on a snapshot is also offered back to the
// snapshot's origin writer (adoptIndex): in the server regime every
// query runs on a snapshot, so without adoption the writer would never
// accumulate indexes to maintain and each new snapshot would rebuild
// from scratch — adoption is what keeps incremental maintenance live
// for snapshot-only readers.
func (d *Database) Index(rel string, col int) *EqIndex {
	k := indexKey{rel, col}
	d.mu.Lock()
	if ix, ok := d.indexes[k]; ok {
		d.mu.Unlock()
		return ix
	}
	ix := d.BuildIndex(rel, col)
	if d.indexes == nil {
		d.indexes = make(map[indexKey]*EqIndex)
	}
	d.indexes[k] = ix
	d.mu.Unlock()
	if d.frozen && d.origin != nil {
		d.origin.adoptIndex(k, ix, d.version.Load())
	}
	return ix
}

// adoptIndex installs an index a snapshot built into the writer's cache,
// marked shared (the writer clones before extending it), provided the
// writer is still at the snapshot's version — the index covers exactly
// the writer's rows then — and has not built its own meanwhile.
func (w *Database) adoptIndex(k indexKey, ix *EqIndex, version int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.version.Load() != version || w.indexes[k] != nil {
		return
	}
	if w.indexes == nil {
		w.indexes = make(map[indexKey]*EqIndex)
	}
	w.indexes[k] = ix
	if w.sharedIx == nil {
		w.sharedIx = make(map[indexKey]bool)
	}
	w.sharedIx[k] = true
}

// writableIndex returns the cached index of (rel, col) ready for in-place
// extension, cloning it first when a published snapshot still references
// it; nil when the column has no cached index yet (it stays lazy).
// Callers hold d.mu.
func (d *Database) writableIndex(rel string, col int) *EqIndex {
	if len(d.indexes) == 0 {
		return nil
	}
	k := indexKey{rel, col}
	ix := d.indexes[k]
	if ix == nil {
		return nil
	}
	if d.sharedIx[k] {
		ix = ix.clone()
		d.indexes[k] = ix
		delete(d.sharedIx, k)
	}
	return ix
}
