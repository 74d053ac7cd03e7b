package core

import (
	"context"

	"repro/internal/realfmla"
)

// itemOptions derives the per-item engine options of the measurement
// pipeline (MeasureBatch, Engine.MeasureSQL, the race): a deterministic
// per-index seed, and a goroutine budget of one — the pass over
// candidates already spends the caller's budget, so nested fan-out is
// impossible, and values are width-independent, so this only affects
// scheduling. It is the determinism contract tying MeasureSQL to
// MeasureBatch; seedItem is its one caller.
func itemOptions(o Options, idx int) Options {
	o.Seed += int64(idx) * 1_000_003
	o.PoolWorkers = 1
	return o
}

// resetItem reconfigures a pooled per-item engine for one measurement.
// The engine behaves bit-identically to New(o) handed the same kernel
// cache: the RNG source reseeds in place exactly as a fresh source
// seeds, its sampling scratch rebinds to each kernel it samples and
// reseeds per chunk, and no other state survives a measurement. Pooling
// the engines merely avoids rebuilding the ~5 KB RNG state (and the
// engine and its scratch) per candidate.
func (e *Engine) resetItem(o Options, kernels *kernelCache) {
	e.opts = o.withDefaults()
	e.reseedPending = true
	e.memoServed = 0
	e.kc = kernels
}

// itemEngine returns the w-th reusable pool engine of this engine's
// fan-outs, creating it on first use. Each fan-out slot owns one engine
// for the duration of a call; calls on the parent engine are sequential,
// so reuse across calls is single-owner too. Slots that run concurrently
// must be created before the fan-out starts.
func (e *Engine) itemEngine(w int) *Engine {
	for len(e.itemEngines) <= w {
		eng := New(e.opts)
		eng.seedMemo = make(map[int64]int64)
		e.itemEngines = append(e.itemEngines, eng)
	}
	return e.itemEngines[w]
}

// MeasureBatch computes measures for many formulas concurrently — the
// shape of the experiment pipeline, where every candidate tuple of a SQL
// result needs its own confidence level. It spends opts.PoolWorkers on
// formulas, each measured on one goroutine: engines are not safe for
// concurrent use, so each formula is measured under its own per-index
// seeding on a worker-owned pool engine (forEachItem), and results are
// identical to a sequential run regardless of scheduling. The batch owns
// one shared compiled-kernel cache, so duplicate formulas compile once.
// A nil error slice entry means the corresponding result is valid.
func MeasureBatch(opts Options, phis []realfmla.Formula, eps, delta float64) ([]Result, []error) {
	results := make([]Result, len(phis))
	errs := make([]error, len(phis))
	// Validate once up front with the shared validator: previously a batch
	// of exactly-decidable formulas sailed past a bad eps (only the
	// sampling path checked), so the contract differed across entry points.
	if err := ValidateEpsDelta(eps, delta); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	New(opts).forEachItem(context.Background(), len(phis), func(eng *Engine, i int) {
		results[i], errs[i] = eng.MeasureFormula(phis[i], eps, delta)
	})
	return results, errs
}
