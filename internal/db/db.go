// Package db implements incomplete databases over the two-sorted data model:
// finite relations whose entries are base/numerical constants or marked
// nulls, together with valuations (interpretations of nulls by constants)
// and the active-domain bookkeeping the algorithms of the paper need.
//
// Storage is column-major: each relation column holds a per-row kind array
// (the column's kind bitmap) plus flat typed payload arrays — packed
// dictionary codes for base columns, raw float64 values and null IDs for
// numerical columns. Base constants are interned in a per-database string
// dictionary, so base equality (the decidable joins of Prop 5.2) is a
// single integer comparison and equality-index builds are sequential scans
// over flat arrays. value.Value remains the boundary type: Insert accepts
// tuples of values and Tuples/All/Row materialize them back on demand.
//
// The store is versioned: every column, the dictionary, each equality-index
// group and each inventory slice is append-only, so Insert maintains the
// cached indexes and inventories incrementally (no wholesale invalidation)
// and Snapshot publishes immutable copy-on-write views that concurrent
// readers keep using while later writes land (see snapshot.go).
package db

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/value"
)

// column is the columnar storage of one relation column.
//
//   - kinds is the per-row kind array (the kind bitmap of the column);
//   - codes holds, for base columns, the packed equality code of every row
//     (dictID<<1 for constants, nullID<<1|1 for nulls) and, for numerical
//     columns, the null ID on NumNull rows (0 elsewhere);
//   - nums holds the constant payload on NumConst rows of numerical
//     columns; it stays nil for base columns.
type column struct {
	kinds []value.Kind
	codes []int32
	nums  []float64
}

// table is the columnar storage of one relation: n rows across per-column
// typed arrays.
type table struct {
	rel  *schema.Relation
	n    int
	cols []column
}

// view returns a frozen copy of the table header: the same backing arrays
// behind fresh slice headers. The arrays are append-only, so a writer
// appending row n never touches memory a view of length n can reach.
func (tb *table) view() *table {
	cp := &table{rel: tb.rel, n: tb.n, cols: make([]column, len(tb.cols))}
	copy(cp.cols, tb.cols)
	return cp
}

// ColView is a read-only view of one relation column's columnar arrays,
// the zero-copy scan interface of the executor. The slices are owned by
// the database and must not be modified. Field meanings match column.
type ColView struct {
	Kinds []value.Kind
	Codes []int32
	Nums  []float64
}

// maxID bounds dictionary codes and null IDs so that the packed base code
// (id<<1 | nullbit) always fits an int32.
const maxID = 1 << 30

// Database is an incomplete database instance: for each relation of the
// schema, a finite set (stored column-major) of tuples over constants and
// marked nulls.
//
// A Database is either the live writer or a frozen snapshot of one
// (Snapshot). Writers need external serialization among themselves — one
// Insert at a time — but writing is safe concurrently with any number of
// readers that hold snapshots. Reading the live writer directly is only
// safe when no Insert runs concurrently (the single-goroutine Session
// regime).
type Database struct {
	schema *schema.Schema
	tables map[string]*table
	dict   dict

	nextBaseNull int
	nextNumNull  int

	// frozen marks an immutable snapshot view: Insert is rejected, and the
	// caches below, once built, are never mutated in place. origin points
	// a snapshot back at the writer it was taken from, so indexes the
	// snapshot builds lazily can be adopted by the writer (adoptIndex)
	// and stay incrementally maintained for later snapshots.
	frozen bool
	origin *Database

	// version counts committed mutations. Snapshot's fast path compares it
	// (atomically, without taking mu) against the published snapshot's
	// version; equality means the snapshot is current.
	version atomic.Int64
	// snap is the published snapshot of this writer — the RCU handle:
	// readers load the pointer, the writer swaps in a fresh frozen view
	// when Snapshot finds the published one stale.
	snap atomic.Pointer[Database]

	// mu guards the caches below and, on a writer, every mutation: Insert
	// holds it across the column appends and the incremental cache
	// maintenance, so Snapshot and the cache accessors always observe a
	// committed state.
	mu      sync.Mutex
	indexes map[indexKey]*EqIndex
	// sharedIx marks indexes referenced by a published snapshot: the
	// writer clones them (copy-on-write) before its next in-place append.
	sharedIx map[indexKey]bool

	// Active-domain inventories. The membership sets are writer-local and
	// maintained incrementally by Insert; the sorted slices below them are
	// the published form, possibly shared with snapshots, so they are only
	// ever replaced by fresh allocations or extended append-only (which a
	// snapshot, bounded by its own slice lengths, never observes).
	invValid    bool // published slices match the membership sets
	invShared   bool // numNullIndex is shared with a snapshot: COW first
	baseNullSet map[int]bool
	numNullSet  map[int]bool
	numConstSet map[float64]bool
	pendBase    []int     // new base-null IDs awaiting a sorted merge
	pendNum     []int     // new numerical-null IDs awaiting a sorted merge
	pendConst   []float64 // new numerical constants awaiting a sorted merge

	baseNulls    []int
	numNulls     []int
	numNullIndex map[int]int
	numConsts    []float64

	baseConstsLen int // dict length covered by baseConsts
	baseConsts    []string
}

// New returns an empty database over the given schema.
func New(s *schema.Schema) *Database {
	return &Database{schema: s, tables: make(map[string]*table)}
}

// Schema returns the database schema.
func (d *Database) Schema() *schema.Schema { return d.schema }

// Version reports the number of committed mutations. Two reads returning
// the same version bracket an unchanged database; a snapshot carries the
// version it was taken at.
func (d *Database) Version() int64 { return d.version.Load() }

// ReadOnly reports whether the database is a frozen snapshot view.
func (d *Database) ReadOnly() bool { return d.frozen }

func (d *Database) table(rel string) *table { return d.tables[rel] }

func (d *Database) ensureTable(rel string, r *schema.Relation) *table {
	tb := d.tables[rel]
	if tb == nil {
		tb = &table{rel: r, cols: make([]column, len(r.Columns))}
		d.tables[rel] = tb
	}
	return tb
}

// checkInsert validates a tuple without mutating anything: schema arity
// and sorts, null-ID ranges, and writability. Insert's atomicity hangs on
// this running to completion before the first append.
func (d *Database) checkInsert(rel string, t value.Tuple) (*schema.Relation, error) {
	if d.frozen {
		return nil, fmt.Errorf("db: relation %s: database is a read-only snapshot", rel)
	}
	r := d.schema.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("db: unknown relation %s", rel)
	}
	if err := r.CheckTuple(t); err != nil {
		return nil, err
	}
	for _, v := range t {
		switch v.Kind() {
		case value.BaseNull:
			if v.NullID() >= maxID {
				return nil, fmt.Errorf("db: base null id %d out of range", v.NullID())
			}
		case value.NumNull:
			if v.NullID() >= maxID {
				return nil, fmt.Errorf("db: numerical null id %d out of range", v.NullID())
			}
		}
	}
	return r, nil
}

// Insert adds a tuple to the named relation after validating it against
// the schema. Nulls mentioned in the tuple are registered so that
// FreshBaseNull and FreshNumNull never collide with them.
//
// Insert is atomic: a tuple that fails validation leaves the database
// bit-identical — no partially appended columns, no touched caches or
// inventories, no consumed null identifiers. On success the relation's
// cached equality indexes (and their distinct-key statistics) and the
// active-domain inventories are maintained incrementally, in place —
// never dropped — and the database version advances. Published snapshots
// are unaffected: structures they share are cloned copy-on-write before
// the first in-place mutation.
func (d *Database) Insert(rel string, t value.Tuple) error {
	r, err := d.checkInsert(rel, t)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.insertLocked(r, t)
	d.version.Add(1)
	return nil
}

// CheckBatch validates a batch against the schema without mutating
// anything: the exact validation InsertBatch runs before its first
// append. Write-ahead logging uses it to reject invalid batches before
// they reach the log — a logged record must always replay cleanly.
func (d *Database) CheckBatch(rel string, tuples []value.Tuple) error {
	for _, t := range tuples {
		if _, err := d.checkInsert(rel, t); err != nil {
			return err
		}
	}
	return nil
}

// InsertBatch inserts tuples into the named relation atomically: every
// tuple is validated before the first one is appended, so an invalid
// tuple anywhere in the batch leaves the database bit-identical. The
// batch commits as one version step.
func (d *Database) InsertBatch(rel string, tuples []value.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	var r *schema.Relation
	for _, t := range tuples {
		var err error
		if r, err = d.checkInsert(rel, t); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range tuples {
		d.insertLocked(r, t)
	}
	d.version.Add(1)
	return nil
}

// insertLocked appends one fully validated tuple and maintains the
// caches in place. Callers hold d.mu.
func (d *Database) insertLocked(r *schema.Relation, t value.Tuple) {
	for _, v := range t {
		switch v.Kind() {
		case value.BaseNull:
			if v.NullID() >= d.nextBaseNull {
				d.nextBaseNull = v.NullID() + 1
			}
		case value.NumNull:
			if v.NullID() >= d.nextNumNull {
				d.nextNumNull = v.NullID() + 1
			}
		}
	}
	tb := d.ensureTable(r.Name, r)
	row := int32(tb.n)
	for j, v := range t {
		c := &tb.cols[j]
		c.kinds = append(c.kinds, v.Kind())
		var code int32
		switch v.Kind() {
		case value.BaseConst:
			code = d.dict.intern(v.Str()) << 1
			c.codes = append(c.codes, code)
		case value.BaseNull:
			code = int32(v.NullID())<<1 | 1
			c.codes = append(c.codes, code)
		case value.NumConst:
			c.codes = append(c.codes, 0)
			c.nums = append(c.nums, v.Float())
		case value.NumNull:
			code = int32(v.NullID())
			c.codes = append(c.codes, code)
			c.nums = append(c.nums, 0)
		}
		if ix := d.writableIndex(r.Name, j); ix != nil {
			ix.addRow(v, code, row)
		}
		d.addInventory(v)
	}
	tb.n++
}

// MustInsert is Insert that panics on error, for tests and examples.
func (d *Database) MustInsert(rel string, vals ...value.Value) {
	if err := d.Insert(rel, value.Tuple(vals)); err != nil {
		panic(err)
	}
}

// FreshBaseNull allocates a base null unused anywhere in the database.
// Like Insert it is a writer-side operation: safe concurrently with
// snapshot readers, serialized against other writers by d.mu, and
// rejected (panic, like any write to a read-only view) on snapshots —
// a snapshot's counter is frozen, so an ID it handed out could collide
// with one the live writer allocates.
func (d *Database) FreshBaseNull() value.Value {
	if d.frozen {
		panic("db: FreshBaseNull on a read-only snapshot")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	v := value.NullBase(d.nextBaseNull)
	d.nextBaseNull++
	return v
}

// FreshNumNull allocates a numerical null unused anywhere in the database.
// Writer-side; see FreshBaseNull.
func (d *Database) FreshNumNull() value.Value {
	if d.frozen {
		panic("db: FreshNumNull on a read-only snapshot")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	v := value.NullNum(d.nextNumNull)
	d.nextNumNull++
	return v
}

// cellValue materializes the boundary value of one cell.
func (d *Database) cellValue(tb *table, col, row int) value.Value {
	c := &tb.cols[col]
	switch c.kinds[row] {
	case value.BaseConst:
		return value.Base(d.dict.str(c.codes[row] >> 1))
	case value.BaseNull:
		return value.NullBase(int(c.codes[row] >> 1))
	case value.NumConst:
		return value.Num(c.nums[row])
	default:
		return value.NullNum(int(c.codes[row]))
	}
}

// rowTuple materializes row i of a table as a fresh tuple.
func (d *Database) rowTuple(tb *table, i int) value.Tuple {
	t := make(value.Tuple, len(tb.cols))
	for j := range tb.cols {
		t[j] = d.cellValue(tb, j, i)
	}
	return t
}

// Tuples returns the tuples of the named relation, materialized from the
// columnar storage: the caller owns the result and may modify it freely
// without corrupting the database. Read-only consumers that only iterate
// should use All, Len and Row; scans should use Col.
func (d *Database) Tuples(rel string) []value.Tuple {
	tb := d.table(rel)
	if tb == nil {
		return nil
	}
	out := make([]value.Tuple, tb.n)
	for i := range out {
		out[i] = d.rowTuple(tb, i)
	}
	return out
}

// All returns an iterator over the tuples of the named relation in
// insertion order. Each yielded tuple is freshly materialized from the
// columnar storage and owned by the caller.
func (d *Database) All(rel string) iter.Seq[value.Tuple] {
	return func(yield func(value.Tuple) bool) {
		tb := d.table(rel)
		if tb == nil {
			return
		}
		for i := 0; i < tb.n; i++ {
			if !yield(d.rowTuple(tb, i)) {
				return
			}
		}
	}
}

// Len returns the number of tuples in the named relation.
func (d *Database) Len(rel string) int {
	tb := d.table(rel)
	if tb == nil {
		return 0
	}
	return tb.n
}

// Rows returns the tuples of the named relation for read-only random
// access, materialized from the columnar storage (one fresh tuple per
// row). Hot paths should scan the columnar arrays via Col instead.
func (d *Database) Rows(rel string) []value.Tuple { return d.Tuples(rel) }

// Row returns the i-th tuple (in insertion order) of the named relation,
// materialized as a fresh tuple owned by the caller.
func (d *Database) Row(rel string, i int) value.Tuple { return d.rowTuple(d.table(rel), i) }

// Col returns the columnar view of one relation column for zero-copy
// read-only scans. The returned slices are owned by the database and must
// not be modified; an unknown relation yields empty views.
func (d *Database) Col(rel string, col int) ColView {
	tb := d.table(rel)
	if tb == nil {
		return ColView{}
	}
	c := &tb.cols[col]
	return ColView{Kinds: c.kinds, Codes: c.codes, Nums: c.nums}
}

// DictString returns the base constant interned under the given dictionary
// id (a packed base code shifted right by one).
func (d *Database) DictString(id int32) string { return d.dict.str(id) }

// LookupBaseCode returns the packed equality code of a base constant, with
// ok=false when the constant occurs nowhere in the database (so no row can
// compare equal to it).
func (d *Database) LookupBaseCode(s string) (int32, bool) {
	id, ok := d.dict.code(s)
	return id << 1, ok
}

// Size returns the total number of tuples across all relations.
func (d *Database) Size() int {
	n := 0
	for _, tb := range d.tables {
		n += tb.n
	}
	return n
}

// addInventory folds one inserted value into the live inventory state:
// the membership sets update in place and genuinely new elements queue
// for the next sorted merge (buildInventories). While the inventories
// have never been built the sets are nil and the value is ignored — the
// first accessor still performs its single full scan.
func (d *Database) addInventory(v value.Value) {
	switch v.Kind() {
	case value.BaseNull:
		if d.baseNullSet != nil && !d.baseNullSet[v.NullID()] {
			d.baseNullSet[v.NullID()] = true
			d.pendBase = append(d.pendBase, v.NullID())
			d.invValid = false
		}
	case value.NumNull:
		if d.numNullSet != nil && !d.numNullSet[v.NullID()] {
			d.numNullSet[v.NullID()] = true
			d.pendNum = append(d.pendNum, v.NullID())
			d.invValid = false
		}
	case value.NumConst:
		if d.numConstSet != nil && !d.numConstSet[v.Float()] {
			d.numConstSet[v.Float()] = true
			d.pendConst = append(d.pendConst, v.Float())
			d.invValid = false
		}
	}
}

// scanInventories seeds the membership sets with one sequential scan per
// column, queueing every element for the first sorted merge. It runs at
// most once per database; all later
// maintenance is incremental. Callers hold d.mu.
func (d *Database) scanInventories() {
	d.baseNullSet = make(map[int]bool)
	d.numNullSet = make(map[int]bool)
	d.numConstSet = make(map[float64]bool)
	for _, tb := range d.tables {
		for j := range tb.cols {
			c := &tb.cols[j]
			if tb.rel.Columns[j].Type == schema.Base {
				for i, k := range c.kinds {
					if k == value.BaseNull {
						if id := int(c.codes[i] >> 1); !d.baseNullSet[id] {
							d.baseNullSet[id] = true
							d.pendBase = append(d.pendBase, id)
						}
					}
				}
				continue
			}
			for i, k := range c.kinds {
				if k == value.NumNull {
					if id := int(c.codes[i]); !d.numNullSet[id] {
						d.numNullSet[id] = true
						d.pendNum = append(d.pendNum, id)
					}
				} else if x := c.nums[i]; !d.numConstSet[x] {
					d.numConstSet[x] = true
					d.pendConst = append(d.pendConst, x)
				}
			}
		}
	}
}

// buildInventories brings the published inventory slices up to date with
// the membership sets. After the one-time seeding scan this only merges
// the queued new elements: sorted slices either grow append-only (new
// elements above the current maximum — snapshot readers, bounded by their
// own slice lengths, never observe the appended tail) or are replaced by
// freshly allocated merges; the numNullIndex inverse map is cloned first
// when a snapshot shares it. It never rescans the relations and never
// mutates storage a snapshot can reach. Callers hold d.mu.
func (d *Database) buildInventories() {
	if d.invValid {
		return
	}
	if d.baseNullSet == nil {
		d.scanInventories()
	}
	if len(d.pendBase) > 0 {
		d.baseNulls = mergeSorted(d.baseNulls, d.pendBase)
		d.pendBase = nil
	}
	if len(d.pendConst) > 0 {
		d.numConsts = mergeSorted(d.numConsts, d.pendConst)
		d.pendConst = nil
	}
	if len(d.pendNum) > 0 {
		sort.Ints(d.pendNum)
		if n := len(d.numNulls); n == 0 || d.pendNum[0] > d.numNulls[n-1] {
			// Fresh nulls above the current maximum — the common case
			// (FreshNumNull allocates ascending IDs): extend the sorted
			// slice and its inverse map in place.
			if d.invShared {
				d.numNullIndex = maps.Clone(d.numNullIndex)
				d.invShared = false
			}
			if d.numNullIndex == nil {
				d.numNullIndex = make(map[int]int, len(d.pendNum))
			}
			for _, id := range d.pendNum {
				d.numNulls = append(d.numNulls, id)
				d.numNullIndex[id] = len(d.numNulls) - 1
			}
		} else {
			// Out-of-order IDs shift positions: rebuild slice and map fresh.
			d.numNulls = mergeSorted(d.numNulls, d.pendNum)
			d.numNullIndex = make(map[int]int, len(d.numNulls))
			for i, id := range d.numNulls {
				d.numNullIndex[id] = i
			}
			d.invShared = false
		}
		d.pendNum = nil
	}
	d.invValid = true
}

// mergeSorted merges unsorted new elements into a sorted slice. The
// append fast path may extend dst's backing array past every published
// length; the interleaving path allocates fresh, so published slices are
// never changed within their bounds. cmp.Less orders float NaNs first,
// exactly like the full sort a rebuild runs, so incremental maintenance
// and rebuilds produce byte-identical slices.
func mergeSorted[T cmp.Ordered](dst, add []T) []T {
	slices.Sort(add)
	if len(dst) == 0 {
		return add
	}
	if cmp.Less(dst[len(dst)-1], add[0]) {
		return append(dst, add...)
	}
	out := make([]T, 0, len(dst)+len(add))
	i, j := 0, 0
	for i < len(dst) && j < len(add) {
		if cmp.Less(add[j], dst[i]) {
			out = append(out, add[j])
			j++
		} else {
			out = append(out, dst[i])
			i++
		}
	}
	out = append(out, dst[i:]...)
	return append(out, add[j:]...)
}

// BaseNulls returns the identifiers of all base nulls occurring in the
// database, sorted ascending. This is the set Nbase(D) of the paper. The
// result is valid until the next mutation and must not be modified.
func (d *Database) BaseNulls() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildInventories()
	return d.baseNulls
}

// NumNulls returns the identifiers of all numerical nulls occurring in the
// database, sorted ascending. This is the set Nnum(D) of the paper. The
// result is valid until the next mutation and must not be modified.
func (d *Database) NumNulls() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildInventories()
	return d.numNulls
}

// NumNullIndex returns NumNulls together with its inverse (null ID →
// position), the formula-variable indexing of the SQL pipeline. Both are
// valid until the next mutation and must not be modified.
func (d *Database) NumNullIndex() ([]int, map[int]int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildInventories()
	return d.numNulls, d.numNullIndex
}

// BaseConstants returns the set Cbase(D): all base-type constants occurring
// in the database, sorted. Because the dictionary is append-only and fed
// exclusively by Insert, this is a sorted copy of the dictionary. The
// result is cached until the dictionary next grows and must not be
// modified.
func (d *Database) BaseConstants() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.dict.strs) != d.baseConstsLen || d.baseConsts == nil {
		d.baseConsts = append([]string(nil), d.dict.strs...)
		sort.Strings(d.baseConsts)
		d.baseConstsLen = len(d.dict.strs)
	}
	return d.baseConsts
}

// NumConstants returns the set Cnum(D): all numerical constants occurring
// in the database, sorted ascending. The result is valid until the next
// mutation and must not be modified.
func (d *Database) NumConstants() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildInventories()
	return d.numConsts
}

// NumNullOccurrences returns, for each numerical null ID, the
// "Relation.column" positions where it occurs. Range constraints declared
// per column (the Section 10 extension) are attached to nulls through
// this map.
func (d *Database) NumNullOccurrences() map[int][]string {
	out := make(map[int][]string)
	seen := make(map[[2]interface{}]bool)
	for _, rel := range d.schema.Relations() {
		tb := d.table(rel.Name)
		if tb == nil {
			continue
		}
		for i := 0; i < tb.n; i++ {
			for j := range tb.cols {
				c := &tb.cols[j]
				if c.kinds[i] != value.NumNull {
					continue
				}
				id := int(c.codes[i])
				key := [2]interface{}{id, rel.Name + "." + rel.Columns[j].Name}
				if seen[key] {
					continue
				}
				seen[key] = true
				out[id] = append(out[id], rel.Name+"."+rel.Columns[j].Name)
			}
		}
	}
	return out
}

// IsComplete reports whether the database contains no nulls.
func (d *Database) IsComplete() bool {
	return len(d.BaseNulls()) == 0 && len(d.NumNulls()) == 0
}

// Clone returns a deep copy of the database: a fresh writable database
// with independent storage and no caches, regardless of whether d is a
// writer or a snapshot.
func (d *Database) Clone() *Database {
	c := New(d.schema)
	c.nextBaseNull = d.nextBaseNull
	c.nextNumNull = d.nextNumNull
	c.dict = d.dict.clone()
	for rel, tb := range d.tables {
		cp := &table{rel: tb.rel, n: tb.n, cols: make([]column, len(tb.cols))}
		for j := range tb.cols {
			cp.cols[j] = column{
				kinds: append([]value.Kind(nil), tb.cols[j].kinds...),
				codes: append([]int32(nil), tb.cols[j].codes...),
			}
			if tb.cols[j].nums != nil {
				cp.cols[j].nums = append([]float64(nil), tb.cols[j].nums...)
			}
		}
		c.tables[rel] = cp
	}
	return c
}

// String renders every relation with its tuples, sorted by relation name.
func (d *Database) String() string {
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += n + ":\n"
		for t := range d.All(n) {
			s += "  " + t.String() + "\n"
		}
	}
	return s
}

// canonFloatBits returns the equality-key bit pattern of a numerical
// constant: -0 is identified with +0 (they compare equal) and every NaN
// payload is collapsed to one canonical pattern.
func canonFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return 0x7ff8000000000001
	}
	return math.Float64bits(f)
}
