package exec

import (
	"container/heap"
	"math"

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

// Aggregator folds a stream of materialized derivations into distinct
// candidate tuples: per distinct projected tuple (in first-derivation
// order) the disjunction of its derivations' constraint conjunctions.
// With a positive limit, only the first `limit` distinct tuples keep
// their constraint disjuncts — later tuples are tracked (they can never
// enter the limit window) but cost no memory beyond their key. This is
// the Deriv-based path used when a reordered plan must buffer and sort
// derivations; streaming plans go through the fused aggregation of
// Aggregate, which never materializes non-kept tuples at all. With a
// race cut (Options.TopK = k), candidates after the k-th saturated one
// are counted but gather nothing, and come out as zero entries.
type Aggregator struct {
	limit int
	cut   certainCut
	byKey map[string]*agg
	kept  []*agg
	// onSaturated, when set, fires as soon as a kept candidate's
	// constraint collapses to true (a derivation with no constraint
	// atoms): its Phi can no longer change, so a fused pipeline may start
	// measuring it while enumeration continues.
	onSaturated func(idx int, c Candidate)
}

type agg struct {
	idx       int
	tuple     value.Tuple
	disjuncts []realfmla.Formula
	keep      bool
	saturated bool
}

// NewAggregator returns an aggregator for the given LIMIT (0 = none) and
// race cut (Options.TopK; 0 = none). onSaturated may be nil.
func NewAggregator(limit, topK int, onSaturated func(idx int, c Candidate)) *Aggregator {
	return &Aggregator{limit: limit, cut: newCertainCut(topK), byKey: make(map[string]*agg), onSaturated: onSaturated}
}

// Add folds one derivation in.
func (a *Aggregator) Add(d *Deriv) {
	key := d.Tuple.Key()
	g, ok := a.byKey[key]
	if !ok {
		g = &agg{keep: a.limit <= 0 || len(a.kept) < a.limit}
		a.byKey[key] = g
		if g.keep {
			g.idx = len(a.kept)
			a.kept = append(a.kept, g)
			if g.idx < a.cut.dead {
				g.tuple = d.Tuple
			}
		}
	}
	if !g.keep || g.saturated || g.idx >= a.cut.dead {
		return
	}
	if len(d.Conj) == 0 {
		// An unconditional derivation: Or(..., true, ...) collapses, so
		// the candidate's Phi is final and the disjunct list can go.
		g.saturated = true
		g.disjuncts = nil
		from, to := a.cut.saturate(g.idx, len(a.kept))
		for _, c := range a.kept[from:to] {
			c.tuple, c.disjuncts = nil, nil
		}
		if a.onSaturated != nil {
			a.onSaturated(g.idx, Candidate{Tuple: g.tuple, Phi: realfmla.FTrue{}})
		}
		return
	}
	g.disjuncts = append(g.disjuncts, realfmla.And(d.Conj...))
}

// Finish returns the candidates in first-derivation order with the LIMIT
// applied (nil when there are none), including any already reported
// through onSaturated. Candidates past the race cut are zero entries.
func (a *Aggregator) Finish() []Candidate {
	if len(a.kept) == 0 {
		return nil
	}
	out := make([]Candidate, len(a.kept))
	for i, g := range a.kept[:min(len(a.kept), a.cut.dead)] {
		phi := realfmla.Formula(realfmla.FTrue{})
		if !g.saturated {
			phi = realfmla.Or(g.disjuncts...)
		}
		out[i] = Candidate{Tuple: g.tuple, Phi: phi}
	}
	return out
}

// Saturated reports whether candidate idx was finalized early.
func (a *Aggregator) Saturated(idx int) bool { return a.kept[idx].saturated }

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
// (Aggregate's two paths and Run's reorder buffer) polls on this cadence
// — the ctxpoll analyzer enforces that new ones do too.
const interruptEvery = 4096

// Aggregate runs the plan and folds its derivation stream into the
// distinct candidate tuples with their constraints, in first-derivation
// order with the plan's LIMIT applied. The returned bool slice marks
// candidates whose constraint saturated to true mid-enumeration (and
// were already reported through onSaturated, when set).
//
// On streaming (Identity) plans the fold is fused into the cursor:
// grouping hashes the projected cells straight off the columnar arrays,
// and tuples and constraint atoms are materialized only for kept
// candidates — beyond-limit derivations are counted and nothing else.
// With opts.TopK = k the same holds for every candidate after the k-th
// saturated one, which cannot place in the LIMIT-k race: each distinct
// tuple still gets its entry (a zero Candidate) and every derivation is
// still counted, so the candidate count and Derivations do not change.
// Reordered plans buffer materialized derivations to restore derivation
// order first (see Run), then aggregate; results are identical.
func Aggregate(p *plan.Plan, d *db.Database, opts Options, onSaturated func(int, Candidate)) (*Result, []bool, error) {
	res := &Result{NullIDs: p.NullIDs, Index: p.Index}
	if !p.Identity {
		ag := NewAggregator(p.Limit, opts.TopK, onSaturated)
		if err := Run(p, d, opts, func(dv *Deriv) error {
			res.Derivations++
			if opts.Interrupt != nil && res.Derivations%interruptEvery == 0 {
				if err := opts.Interrupt(); err != nil {
					return err
				}
			}
			ag.Add(dv)
			return nil
		}); err != nil {
			return nil, nil, err
		}
		res.Candidates = ag.Finish()
		sat := make([]bool, len(res.Candidates))
		for i := range sat {
			sat[i] = ag.Saturated(i)
		}
		return res, sat, nil
	}
	cur := NewCursor(p, d, opts)
	f := newFusedAgg(p.Limit, opts.TopK, onSaturated)
	for cur.advance() {
		res.Derivations++
		if opts.Interrupt != nil && res.Derivations%interruptEvery == 0 {
			if err := opts.Interrupt(); err != nil {
				return nil, nil, err
			}
		}
		f.add(cur)
	}
	if cur.err != nil {
		return nil, nil, cur.err
	}
	var sat []bool
	res.Candidates, sat = f.finish()
	return res, sat, nil
}

// Collect runs the plan and aggregates its derivation stream into the
// distinct candidate tuples with their constraints — the convenience over
// Aggregate for callers that want the whole Result.
func Collect(p *plan.Plan, d *db.Database, opts Options) (*Result, error) {
	res, _, err := Aggregate(p, d, opts, nil)
	return res, err
}
