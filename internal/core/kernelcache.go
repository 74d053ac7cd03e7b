package core

import (
	"sync"

	"repro/internal/realfmla"
)

// kernelCache is a concurrency-safe cache of immutable compiled formula
// kernels, keyed by structural fingerprint. It is the cross-engine
// companion of the per-engine compile cache: the measurement pools
// (Engine.MeasureSQL, MeasureBatch) create one engine per candidate for
// deterministic seeding, and without sharing every one of those engines
// would re-reduce and re-compile its formula from scratch on every call.
// The cache lives on the pool owner, so repeated MeasureSQL calls and
// ε-sweeps skip recompilation entirely. A miss (newKernel: Reduce, then
// Compile) costs in proportion to the formula's size, tens of
// microseconds on a Figure-1 candidate whatever the database's null
// count, so the cache saves per-formula work and allocation, not a scan
// of the database.
//
// Sharing kernels cannot change results: compilation is a deterministic
// pure function of the formula, kernels are immutable, and all sampling
// state stays in per-engine compiledEntry scratch.
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
