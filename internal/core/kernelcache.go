package core

import (
	"sync"

	"repro/internal/realfmla"
)

// kernelCache is the engine's one cache of compiled formula kernels,
// concurrency-safe and keyed by structural fingerprint: the one
// UseKernels set, or the engine's own, created on first use (an engine
// with a negative CompileCacheSize has none and compiles on every use).
// The measurement pools (Engine.MeasureSQL, MeasureBatch) create one
// engine per candidate for deterministic seeding and hand each the pool
// owner's cache, so repeated MeasureSQL calls and ε-sweeps skip
// recompilation entirely. A miss (newKernel: Reduce, then Compile) costs
// in proportion to the formula's size, not the database's null count.
//
// Bound: cap entries (CompileCacheSize, default 1024); a full cache
// evicts one arbitrary entry per insert. Building a Figure-1 Competitive
// Advantage kernel allocates ≈ 6.6 KB in 71 objects (BenchmarkCompileCache
// uncached minus cached, 556 570 − 63 664 B/op over 75 formulas), an
// upper bound on what it retains: a full default cache holds under 7 MB.
//
// Neither sharing nor eviction can change results: compilation is a
// deterministic pure function of the formula, kernels are immutable and
// rebuilt value-identical after eviction, and sampling scratch is per
// engine or per sample-pool worker, never per formula.
//
// Keys are formula fingerprints — pure formula identity, independent of
// any database version — so a server-wide cache survives snapshot
// swaps: after an insert, candidate constraints the new tuples did not
// change hash to the same kernels and skip recompilation, and
// constraints that did change simply miss and compile once.
type kernelCache struct {
	mu  sync.Mutex
	cap int
	m   map[realfmla.FormulaID]*kernel
}

func newKernelCache(cap int) *kernelCache {
	return &kernelCache{cap: cap, m: make(map[realfmla.FormulaID]*kernel)}
}

// get returns the kernel of phi, compiling it on first sight. The compile
// itself runs outside the lock; on a race the first kernel stored wins
// (they are value-identical). Hits are confirmed syntactically, so a
// fingerprint collision costs a recompile instead of a wrong measure.
func (kc *kernelCache) get(key realfmla.FormulaID, phi realfmla.Formula) *kernel {
	kc.mu.Lock()
	if k, ok := kc.m[key]; ok && realfmla.Equal(phi, k.source) {
		kc.mu.Unlock()
		return k
	}
	kc.mu.Unlock()
	k := newKernel(phi)
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if prev, ok := kc.m[key]; ok && realfmla.Equal(phi, prev.source) {
		return prev
	}
	if len(kc.m) >= kc.cap {
		for id := range kc.m { // full: evict one arbitrary entry
			delete(kc.m, id)
			break
		}
	}
	kc.m[key] = k
	return k
}
