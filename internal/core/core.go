// Package core implements the paper's primary contribution: the measure of
// certainty μ(q, D, (a,s)) ∈ [0,1] for a candidate answer to an FO(+,·,<)
// query over an incomplete database with numerical nulls (Sections 4–8).
//
// The pipeline is: translate (q, D, (a,s)) into a quantifier-free real
// formula φ with μ = ν(φ) (Theorem 5.4, package translate), then compute or
// approximate ν(φ) — the asymptotic fraction of the ball occupied by φ's
// satisfying set — with one of several interchangeable algorithms:
//
//   - exact signed-permutation-cell enumeration for order formulas
//     (rational output; the FO(<) regime of Prop 6.2);
//   - exact sector sweep for linear formulas in ≤ 2 relevant variables
//     (closed forms with arctan; Prop 6.1 and the introduction example);
//   - the FPRAS for CQ(+,<) via the volume of a union of convex cones
//     intersected with the unit ball (Section 7);
//   - the additive-error AFPRAS for all of FO(+,·,<) by sampling
//     directions and deciding asymptotic truth along rays (Section 8).
package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"

	"repro/internal/db"
	"repro/internal/fo"
	"repro/internal/realfmla"
	"repro/internal/translate"
	"repro/internal/value"
)

// Method identifies which algorithm produced a Result.
type Method string

// Methods reported in Result.Method.
const (
	// MethodTrivial: the formula had no relevant variables; μ ∈ {0,1}.
	MethodTrivial Method = "trivial"
	// MethodExactCells: exact rational value by signed-permutation-cell
	// enumeration (order formulas).
	MethodExactCells Method = "exact-cells"
	// MethodExactSector: exact value by circular sector sweep (linear
	// formulas in ≤ 2 relevant variables).
	MethodExactSector Method = "exact-sector"
	// MethodAFPRAS: additive-error direction sampling on the translated
	// formula (Section 8).
	MethodAFPRAS Method = "afpras"
	// MethodAFPRASDirect: additive-error direction sampling that evaluates
	// the query directly under the asymptotic numeric domain, without
	// materializing the translated formula.
	MethodAFPRASDirect Method = "afpras-direct"
	// MethodFPRAS: multiplicative-error union-of-convex-bodies volume
	// estimation (Section 7, CQ(+,<) regime).
	MethodFPRAS Method = "fpras"
	// MethodAFPRASRace: additive-error direction sampling driven by the
	// adaptive top-k race (MeasureTopK, LIMIT-k MeasureSQL): the estimate
	// is the prefix of the same deterministic sample stream the fixed
	// AFPRAS path would draw, stopped early once the candidate's
	// confidence interval resolved its top-k membership and met the eps
	// width contract. Result.SamplesDrawn/Rounds carry the spend.
	MethodAFPRASRace Method = "afpras-race"
)

// Options configures an Engine.
type Options struct {
	// Seed seeds the engine's random source. The zero value uses 1.
	Seed int64
	// PaperSampleCount, when true, uses the paper's m = ⌈ε⁻²⌉ sample count
	// (confidence 3/4) instead of the Hoeffding count for the requested
	// confidence.
	PaperSampleCount bool
	// DisableExact forces the sampling paths even where an exact algorithm
	// applies (used by benchmarks and tests).
	DisableExact bool
	// ForceSampling charges the full m-sample Monte-Carlo loop even when
	// the formula has no relevant variables (a trivially decided
	// candidate). The paper's reference implementation samples every
	// candidate tuple unconditionally; benchmarks reproducing its timing
	// enable this.
	ForceSampling bool
	// Workers is the number of goroutines used for intra-formula sampling
	// in the additive asymptotic sampler (AdditiveApprox and the AFPRAS
	// path of Measure/MeasureFormula; the Section 10 background and
	// distribution samplers are sequential): the m samples are split into
	// fixed-size chunks with deterministically derived per-chunk seeds,
	// so for a given Seed the result is bit-identical regardless of
	// Workers (the same contract MeasureBatch documents across items).
	// 0 uses GOMAXPROCS; 1 samples on the calling goroutine.
	Workers int
	// PoolWorkers bounds the concurrency of the candidate-measurement
	// pools (MeasureSQL, MeasureSQLStream, MeasureBatch): the number of
	// goroutines measuring candidates at once. 0 uses GOMAXPROCS. Like
	// Workers it never changes results — per-candidate engines are seeded
	// by candidate index — only scheduling; a multi-user server sets it
	// as the per-request worker budget so one request cannot monopolize
	// the machine.
	PoolWorkers int
	// CompileCacheSize bounds the engine's compiled-formula cache: the
	// variable-reduced, kernel-compiled form of each measured formula is
	// kept keyed by formula identity, so ε-sweeps over the same candidate
	// constraints compile each formula once instead of once per call.
	// 0 uses the default of 1024 entries; negative disables caching.
	CompileCacheSize int
	// NoAdaptive disables the adaptive top-k sampling race for LIMIT-k
	// MeasureSQL/MeasureSQLStream queries, restoring the fixed-budget
	// first-k-distinct-tuples semantics (every kept candidate draws the
	// full m-sample budget). Non-LIMIT queries and exact evaluation are
	// identical either way. See MeasureTopK for the race contract.
	NoAdaptive bool
}

const (
	// asymTol is the tolerance for leading-coefficient sign tests in
	// asymptotic evaluation.
	asymTol = 1e-12
	// maxExactCells bounds the number of signed-permutation cells
	// (2ⁿ · n!) the exact order algorithm may enumerate.
	maxExactCells = 1_000_000
	// dnfLimit bounds the DNF blowup in the FPRAS and decision paths.
	dnfLimit = 4096
)

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CompileCacheSize == 0 {
		o.CompileCacheSize = 1024
	}
	return o
}

// Engine computes measures of certainty. It is not safe for concurrent use;
// create one engine per goroutine (they are cheap). An engine may still
// fan its own sampling work out across Options.Workers goroutines
// internally.
type Engine struct {
	opts  Options
	rng   *rand.Rand
	cache map[realfmla.FormulaID]*compiledEntry
	// shared, when set, is the concurrency-safe compiled-kernel cache the
	// engine resolves formulas through before compiling itself: the
	// measurement pools (MeasureSQL, MeasureBatch) hand every per-item
	// engine the pool owner's cache, so repeated calls and ε-sweeps reuse
	// the immutable compiled kernels instead of recompiling per item.
	shared *kernelCache
	// pool is the persistent crew of parallel-sampling helpers (lazily
	// started when Options.Workers > 1 — see samplePool).
	pool *samplePool
	// itemEngines are the reusable per-candidate engines of this engine's
	// measurement pools (MeasureSQLStream): one per pool worker, reseeded
	// per candidate (resetItem), bit-identical to freshly built ones.
	itemEngines []*Engine

	// Lazy reseeding of pooled item engines. resetItem only marks the
	// reseed; the O(600)-word RNG seeding runs when a draw is actually
	// needed, and the AFPRAS base draw — a pure function of the item seed,
	// and in the common case the item's only draw — is memoized in
	// seedMemo, so repeated queries skip reseeding entirely. memoServed
	// counts memo-served draws so a later full-RNG user replays them and
	// the stream stays bit-identical to a freshly seeded source.
	reseedPending bool
	memoServed    int
	seedMemo      map[int64]int64
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	o := opts.withDefaults()
	return &Engine{opts: o, rng: rand.New(rand.NewSource(o.Seed))}
}

// rand returns the engine RNG, applying a pending item reseed first.
// Draws already served from the base-seed memo (drawBase) are replayed,
// so the stream matches a freshly seeded source exactly.
func (e *Engine) rand() *rand.Rand {
	if e.reseedPending {
		e.rng.Seed(e.opts.Seed)
		for i := 0; i < e.memoServed; i++ {
			e.rng.Int63()
		}
		e.reseedPending = false
		e.memoServed = 0
	}
	return e.rng
}

// drawBase draws the AFPRAS per-invocation base seed. On pooled item
// engines, the first draw after a reset is memoized by item seed —
// rand.Source seeding is deterministic, so the value is a pure function
// of the seed and memoization cannot change results.
func (e *Engine) drawBase() int64 {
	if e.reseedPending && e.memoServed == 0 && e.seedMemo != nil {
		if b, ok := e.seedMemo[e.opts.Seed]; ok {
			e.memoServed = 1
			return b
		}
		b := e.rand().Int63()
		if len(e.seedMemo) < 1<<16 { // bound pathological seed churn
			e.seedMemo[e.opts.Seed] = b
		}
		return b
	}
	return e.rand().Int63()
}

// poolKernels returns the engine's shared kernel cache for measurement
// pools, creating it on first use (nil when caching is disabled). The
// cache lives on the engine, so consecutive MeasureSQL calls reuse it.
func (e *Engine) poolKernels() *kernelCache {
	if e.opts.CompileCacheSize < 0 {
		return nil
	}
	if e.shared == nil {
		e.shared = newKernelCache(e.opts.CompileCacheSize)
	}
	return e.shared
}

// workers resolves Options.Workers to a concrete worker count.
func (e *Engine) workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// poolWorkers resolves Options.PoolWorkers to a concrete measurement-pool
// width.
func (o Options) poolWorkers() int {
	if o.PoolWorkers > 0 {
		return o.PoolWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Kernels is a concurrency-safe cache of immutable compiled formula
// kernels that can be shared across engines. Engines themselves are
// single-goroutine, but a multi-user server creates one engine per
// request over the same database and the same workload; handing every
// request engine one shared Kernels (UseKernels) makes repeated queries
// and ε-sweeps compile each candidate constraint once per server instead
// of once per request. Sharing cannot change measured values: kernels
// are immutable and all sampling state is per-engine.
type Kernels = kernelCache

// NewKernels returns a shared kernel cache holding up to capacity
// compiled formulas (0 uses the default of 1024).
func NewKernels(capacity int) *Kernels {
	if capacity <= 0 {
		capacity = 1024
	}
	return newKernelCache(capacity)
}

// UseKernels makes the engine resolve compiled kernels through kc — both
// for its own measurements and for the per-candidate engines of its
// measurement pools. Call it right after New, before any measurement.
func (e *Engine) UseKernels(kc *Kernels) { e.shared = kc }

// kernel is the immutable, preprocessed form of a measured formula:
// reduced to its relevant variables (Section 9) and kernel-compiled for
// repeated evaluation. Kernels carry no mutable scratch, so they are safe
// to share across engines and goroutines (see kernelCache).
type kernel struct {
	source   realfmla.Formula // the formula this kernel was built from
	reduced  realfmla.Formula
	vars     []int // original indices of the reduced variables
	ambient  int   // variable count of the un-reduced formula
	compiled *realfmla.Compiled
}

func newKernel(phi realfmla.Formula) *kernel {
	reduced, vars := realfmla.Reduce(phi)
	return &kernel{
		source:   phi,
		reduced:  reduced,
		vars:     vars,
		ambient:  realfmla.NumVars(phi),
		compiled: realfmla.Compile(reduced),
	}
}

// compiledEntry pairs a (possibly shared) kernel with the engine-local
// sampling scratch. The seq sampler is per-entry scratch for the engine's
// own goroutine; parallel workers bring their own.
type compiledEntry struct {
	*kernel
	// seq is the single-threaded sampling/evaluation scratch; pool holds
	// per-worker scratch for the parallel sampler. Both are lazily built
	// and reused across calls (the engine is single-goroutine, and within
	// one parallel run each pool slot is owned by exactly one worker).
	seq  *asymSampler
	pool []*asymSampler
}

func newCompiledEntry(phi realfmla.Formula) *compiledEntry {
	return &compiledEntry{kernel: newKernel(phi)}
}

// sampler returns the entry's single-threaded sampling scratch, creating
// it on first use.
func (ent *compiledEntry) sampler() *asymSampler {
	if ent.seq == nil {
		ent.seq = newAsymSampler(ent.compiled, len(ent.vars))
	}
	return ent.seq
}

// samplerPool returns at least `workers` reusable sampler slots. Called
// from the coordinating goroutine before workers start, so the grown
// slice is visible to every worker.
func (ent *compiledEntry) samplerPool(workers int) []*asymSampler {
	for len(ent.pool) < workers {
		ent.pool = append(ent.pool, newAsymSampler(ent.compiled, len(ent.vars)))
	}
	return ent.pool
}

// compiledFor returns the preprocessed form of phi, from the engine's
// cache when enabled, resolving the immutable kernel through the shared
// pool cache when the engine has one. The cached Compiled is immutable
// and shared; all evaluation goes through per-goroutine Evaluators.
func (e *Engine) compiledFor(phi realfmla.Formula) *compiledEntry {
	if e.opts.CompileCacheSize < 0 {
		return newCompiledEntry(phi)
	}
	key := realfmla.Fingerprint(phi)
	// The fingerprint is not cryptographic: confirm the hit syntactically,
	// so a collision costs a recompile instead of a wrong measure.
	if ent, ok := e.cache[key]; ok && realfmla.Equal(phi, ent.source) {
		return ent
	}
	var ent *compiledEntry
	if e.shared != nil {
		ent = &compiledEntry{kernel: e.shared.get(key, phi)}
	} else {
		ent = newCompiledEntry(phi)
	}
	if e.cache == nil {
		e.cache = make(map[realfmla.FormulaID]*compiledEntry)
	} else if len(e.cache) >= e.opts.CompileCacheSize {
		for k := range e.cache { // full: evict one arbitrary entry
			delete(e.cache, k)
			break
		}
	}
	e.cache[key] = ent
	return ent
}

// Result reports a computed or approximated measure.
type Result struct {
	// Value is the (approximate) measure in [0,1].
	Value float64
	// Rat is the exact rational value when the method is exact over the
	// rationals (cell enumeration or trivial); nil otherwise.
	Rat *big.Rat
	// Exact reports whether Value is exact (up to float rounding for the
	// sector method) rather than a statistical estimate.
	Exact bool
	// Method is the algorithm that produced the value.
	Method Method
	// Samples is the number of random samples drawn (0 for exact methods).
	Samples int
	// K is the number of numerical nulls of the database (ambient
	// dimension); RelevantK is the number that actually affect the query
	// (the paper's Section 9 optimization).
	K, RelevantK int
	// SamplesDrawn and Rounds are set only by the adaptive top-k race
	// (Method afpras-race, or an exact/trivial method resolved inside a
	// race): the number of direction samples this candidate actually drew
	// — a prefix of the fixed path's m-sample budget — and the number of
	// race rounds it participated in. Zero on every non-adaptive path, so
	// fixed-budget results are byte-identical to previous releases.
	SamplesDrawn int
	Rounds       int
}

// Measure computes μ(q, D, args): it translates the input into a real
// formula (Prop 5.3) and dispatches to the best applicable algorithm:
// exact enumeration for order formulas, exact sector sweep for
// low-dimensional linear formulas, and the additive-error sampling scheme
// otherwise. eps and delta are the additive error and failure probability
// used when sampling is needed.
func (e *Engine) Measure(q *fo.Query, d *db.Database, args []value.Value, eps, delta float64) (Result, error) {
	res, err := translate.Query(q, d, args)
	if err != nil {
		return Result{}, err
	}
	out, err := e.MeasureFormula(res.Phi, eps, delta)
	if err != nil {
		return Result{}, err
	}
	out.K = res.K()
	return out, nil
}

// MeasureFormula computes ν(φ) for a quantifier-free real formula φ,
// dispatching as Measure does.
func (e *Engine) MeasureFormula(phi realfmla.Formula, eps, delta float64) (Result, error) {
	ent := e.compiledFor(phi)
	n := len(ent.vars)

	if n == 0 && !e.opts.ForceSampling {
		return trivialResult(realfmla.Eval(ent.reduced, nil), ent.ambient), nil
	}
	if !e.opts.DisableExact {
		if r, ok, err := e.exactOrder(ent); err != nil {
			return Result{}, err
		} else if ok {
			r.K = ent.ambient
			r.RelevantK = n
			return r, nil
		}
		if r, ok := e.exactSector(ent.reduced); ok {
			r.K = ent.ambient
			r.RelevantK = n
			return r, nil
		}
	}
	r, err := e.additiveApprox(ent, eps, delta)
	if err != nil {
		return Result{}, err
	}
	return r, nil
}

func trivialResult(truth bool, k int) Result {
	v := 0.0
	rat := big.NewRat(0, 1)
	if truth {
		v = 1
		rat = big.NewRat(1, 1)
	}
	return Result{Value: v, Rat: rat, Exact: true, Method: MethodTrivial, K: k}
}

// ValidateEps checks the additive/multiplicative error parameter shared
// by every sampling entry point (FPRAS, AFPRAS, MeasureBatch, MeasureSQL
// and the server's request validation): eps must lie in (0,1]. The
// negated comparison also rejects NaN.
func ValidateEps(eps float64) error {
	if !(eps > 0 && eps <= 1) {
		return fmt.Errorf("core: eps must be in (0,1], got %g", eps)
	}
	return nil
}

// ValidateEpsDelta checks a full (eps, delta) sampling contract: eps in
// (0,1] and delta in (0,1). It is the one validator behind FPRAS,
// MeasureBatch, MeasureSQL/MeasureSQLStream, MeasureTopK and the server,
// so every entry point rejects the same inputs with the same message.
func ValidateEpsDelta(eps, delta float64) error {
	if err := ValidateEps(eps); err != nil {
		return err
	}
	if !(delta > 0 && delta < 1) {
		return fmt.Errorf("core: delta must be in (0,1), got %g", delta)
	}
	return nil
}
