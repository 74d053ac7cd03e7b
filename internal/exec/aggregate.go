package exec

import (
	"container/heap"
	"math"
	"slices"

	"repro/internal/db"
	"repro/internal/plan"
	"repro/internal/realfmla"
	"repro/internal/value"
)

// Candidate is one answer tuple of the conditional evaluation together
// with its constraint: the tuple is an answer under a valuation of the
// numerical nulls z exactly when Phi(z) holds. Phi is a DNF — one
// disjunct per derivation (join combination) producing the tuple, in
// derivation order. Candidates whose Phi is constantly true are ordinary
// (almost-certain) answers.
type Candidate struct {
	Tuple value.Tuple
	Phi   realfmla.Formula
}

// Result is the aggregated output of a conditional evaluation.
type Result struct {
	Candidates []Candidate
	// NullIDs maps formula variable index to numerical null ID (the same
	// convention as package translate).
	NullIDs []int
	// Index is the inverse of NullIDs.
	Index map[int]int
	// Derivations counts join combinations that survived the base
	// conditions (the size of the naive join result).
	Derivations int
}

// aggNode is one distinct projected tuple of the fused aggregation,
// keyed by the encoded columnar cells (kind + payload per position) so
// grouping never builds string keys or boxed tuples. Hash collisions
// chain through next.
type aggNode struct {
	next      *aggNode
	kinds     []value.Kind
	cells     []uint64
	idx       int
	keep      bool
	saturated bool
	tuple     value.Tuple
	disjuncts []realfmla.Formula
}

// fusedAgg is the kept-aware aggregation fused into the cursor loop: the
// projected tuple of each surviving binding is hashed straight off the
// columnar arrays, and only derivations of kept, unsaturated candidates
// materialize their tuples and constraint atoms.
type fusedAgg struct {
	limit       int
	cut         certainCut
	byHash      map[uint64]*aggNode
	kept        []*aggNode
	onSaturated func(idx int, c Candidate)

	kindsBuf []value.Kind
	cellsBuf []uint64
}

func newFusedAgg(limit, topK int, onSaturated func(int, Candidate)) *fusedAgg {
	return &fusedAgg{limit: limit, cut: newCertainCut(topK), byHash: make(map[uint64]*aggNode), onSaturated: onSaturated}
}

// encode computes the projected tuple's hash and encoded cells from the
// cursor's current binding, into the reusable buffers.
func (f *fusedAgg) encode(c *Cursor) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	kinds := f.kindsBuf[:0]
	cells := f.cellsBuf[:0]
	h := uint64(offset64)
	for _, pc := range c.proj {
		ord := c.ords[pc.step]
		k := pc.col.Kinds[ord]
		var payload uint64
		if k == value.NumConst {
			payload = canonNumBits(pc.col.Nums[ord])
		} else {
			payload = uint64(uint32(pc.col.Codes[ord]))
		}
		kinds = append(kinds, k)
		cells = append(cells, payload)
		h = (h ^ uint64(k)) * prime64
		h = (h ^ payload) * prime64
	}
	f.kindsBuf, f.cellsBuf = kinds, cells
	return h
}

// canonNumBits is the grouping key of a numerical constant: raw bits,
// except that every NaN payload collapses to one pattern. This mirrors
// value.Tuple.Key exactly — FormatFloat 'b' renders all NaNs alike but
// keeps the sign of zero, so -0 and +0 stay distinct candidates. (It
// deliberately differs from the equality-index canonicalization in
// package db, which identifies -0 with +0 the way `==` on boxed values
// always has.)
func canonNumBits(v float64) uint64 {
	if math.IsNaN(v) {
		return 0x7ff8000000000001
	}
	return math.Float64bits(v)
}

// add folds the cursor's current binding in.
func (f *fusedAgg) add(c *Cursor) {
	h := f.encode(c)
	var g *aggNode
	for n := f.byHash[h]; n != nil; n = n.next {
		if keyEqual(n, f.kindsBuf, f.cellsBuf) {
			g = n
			break
		}
	}
	if g == nil {
		g = &aggNode{
			kinds: append([]value.Kind(nil), f.kindsBuf...),
			cells: append([]uint64(nil), f.cellsBuf...),
			keep:  f.limit <= 0 || len(f.kept) < f.limit,
			next:  f.byHash[h],
		}
		f.byHash[h] = g
		if g.keep {
			g.idx = len(f.kept)
			f.kept = append(f.kept, g)
			if g.idx < f.cut.dead {
				g.tuple = c.tuple()
			}
		}
	}
	if !g.keep || g.saturated || g.idx >= f.cut.dead {
		return
	}
	conj := c.conj()
	if conj == nil {
		g.saturated = true
		g.disjuncts = nil
		from, to := f.cut.saturate(g.idx, len(f.kept))
		for _, n := range f.kept[from:to] {
			n.tuple, n.disjuncts = nil, nil
		}
		if f.onSaturated != nil {
			f.onSaturated(g.idx, Candidate{Tuple: g.tuple, Phi: realfmla.FTrue{}})
		}
		return
	}
	g.disjuncts = append(g.disjuncts, conj)
}

func keyEqual(n *aggNode, kinds []value.Kind, cells []uint64) bool {
	if len(n.cells) != len(cells) {
		return false
	}
	for i := range cells {
		if n.kinds[i] != kinds[i] || n.cells[i] != cells[i] {
			return false
		}
	}
	return true
}

func (f *fusedAgg) finish() ([]Candidate, []bool) {
	if len(f.kept) == 0 {
		return nil, nil
	}
	out := make([]Candidate, len(f.kept))
	sat := make([]bool, len(f.kept))
	for i, g := range f.kept {
		sat[i] = g.saturated
		if i >= f.cut.dead {
			continue
		}
		phi := realfmla.Formula(realfmla.FTrue{})
		if !g.saturated {
			phi = realfmla.Or(g.disjuncts...)
		}
		out[i] = Candidate{Tuple: g.tuple, Phi: phi}
	}
	return out, sat
}

// certainCut is Options.TopK's bookkeeping: the k smallest indices of
// saturated candidates, in a max-heap. Once k have saturated, every
// candidate from dead = (the k-th smallest) + 1 on is cut.
type certainCut struct {
	k    int
	sat  maxHeap
	dead int // first cut index; MaxInt while fewer than k saturated
}

func newCertainCut(k int) certainCut { return certainCut{k: k, dead: math.MaxInt} }

// saturate records that candidate idx (< c.dead) saturated, among n
// candidates so far, and returns the index range [from, to) this newly
// cuts.
func (c *certainCut) saturate(idx, n int) (from, to int) {
	switch {
	case c.k <= 0:
		return 0, 0
	case len(c.sat) < c.k:
		heap.Push(&c.sat, idx)
	case idx < c.sat[0]:
		c.sat[0] = idx
		heap.Fix(&c.sat, 0)
	}
	if len(c.sat) < c.k {
		return 0, 0
	}
	prev := c.dead
	c.dead = c.sat[0] + 1
	return min(c.dead, n), min(prev, n)
}

// maxHeap is a container/heap of ints, largest first.
type maxHeap []int

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// interruptEvery trades poll cost against abort latency: checking a
// context every ~4k derivations is invisible in the profile but bounds
// how long a cancelled query keeps enumerating. Every derivation loop
// (Aggregate's enumeration, and its replay of a reordered plan's
// bindings) polls on this cadence — the ctxpoll analyzer enforces that
// new ones do too.
const interruptEvery = 4096

// Aggregate runs the plan and folds its derivation stream into the
// distinct candidate tuples with their constraints, in first-derivation
// order with the plan's LIMIT applied. The returned bool slice marks
// candidates whose constraint saturated to true mid-fold (and were
// already reported through onSaturated, when set).
//
// The fold is fused into the cursor: grouping hashes the projected cells
// straight off the columnar arrays, and tuples and constraint atoms are
// materialized only for kept candidates — beyond-limit derivations are
// counted and nothing else. With opts.TopK = k the same holds for every
// candidate after the k-th saturated one, which cannot place in the
// LIMIT-k race: each distinct tuple still gets its entry (a zero
// Candidate) and every derivation is still counted, so the candidate
// count and Derivations do not change.
//
// On an Identity plan each surviving binding is folded as it is
// enumerated. A reordered plan enumerates in another order, so each
// surviving binding only appends its row ordinals, in FROM order, to one
// flat slab — 4·|FROM| bytes per binding, plus a 4-byte index per
// binding for the sort. The bindings are then replayed through the same
// fold in derivation order (see replay); results are identical. The
// enumeration loop and the replay loop each poll opts.Interrupt every
// interruptEvery bindings.
func Aggregate(p *plan.Plan, d *db.Database, opts Options, onSaturated func(int, Candidate)) (*Result, []bool, error) {
	res := &Result{NullIDs: p.NullIDs, Index: p.Index}
	cur := NewCursor(p, d, opts)
	f := newFusedAgg(p.Limit, opts.TopK, onSaturated)
	var slab []int32
	for cur.advance() {
		res.Derivations++
		if opts.Interrupt != nil && res.Derivations%interruptEvery == 0 {
			if err := opts.Interrupt(); err != nil {
				return nil, nil, err
			}
		}
		if p.Identity {
			f.add(cur)
			continue
		}
		n := len(slab)
		slab = append(slab, cur.ords...)
		for s, o := range p.Order {
			slab[n+o] = cur.ords[s]
		}
	}
	if cur.err != nil {
		return nil, nil, cur.err
	}
	if !p.Identity {
		if err := cur.replay(slab, f, opts.Interrupt); err != nil {
			return nil, nil, err
		}
	}
	var sat []bool
	res.Candidates, sat = f.finish()
	return res, sat, nil
}

// replay folds the bindings buffered in slab (one row ordinal per FROM
// position each) into f in derivation order: the lexicographic order of
// their ordinals, which is the FROM-clause nested-loop enumeration order.
// Each binding is set back into the cursor and its numeric conditions are
// re-run, which rebuilds exactly the pending atoms enumeration saw.
func (c *Cursor) replay(slab []int32, f *fusedAgg, interrupt func() error) error {
	w := len(c.ords)
	idx := make([]int32, len(slab)/w)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		return slices.Compare(slab[int(a)*w:][:w], slab[int(b)*w:][:w])
	})
	for n, i := range idx {
		if interrupt != nil && (n+1)%interruptEvery == 0 {
			if err := interrupt(); err != nil {
				return err
			}
		}
		row := slab[int(i)*w:][:w]
		for s, o := range c.p.Order {
			c.ords[s] = row[o]
		}
		for ci := range c.conds {
			if cs := &c.conds[ci]; cs.kind == plan.CondNumCmp {
				c.applyNumCond(cs)
			}
		}
		f.add(c)
	}
	return nil
}

// Collect runs the plan and aggregates its derivation stream into the
// distinct candidate tuples with their constraints — the convenience over
// Aggregate for callers that want the whole Result.
func Collect(p *plan.Plan, d *db.Database, opts Options) (*Result, error) {
	res, _, err := Aggregate(p, d, opts, nil)
	return res, err
}
