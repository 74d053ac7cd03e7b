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
	// PoolWorkers is the engine's one goroutine budget per call. A pass
	// over candidates (MeasureSQL, MeasureSQLStream, MeasureBatch, the
	// top-k race) spends it on candidates, each measured on one goroutine;
	// a single formula (Measure, MeasureFormula, AdditiveApprox) spends it
	// on its fixed-size chunks of AFPRAS samples (the Section 10
	// background and distribution samplers are sequential). 0 uses
	// GOMAXPROCS; 1 runs everything on the calling goroutine. It never
	// changes results: candidates are seeded by index and sample chunks
	// by chunk index, so for a given Seed every value is bit-identical at
	// any width. A multi-user server sets it as the per-request worker
	// budget so one request cannot monopolize the machine.
	PoolWorkers int
	// CompileCacheSize sizes the engine's own kernel cache (kernelCache),
	// used unless UseKernels set a shared one, so ε-sweeps over the same
	// candidate constraints compile each formula once instead of once per
	// call. 0 uses the default of 1024 entries; negative means no cache at
	// all, not even a shared one: every formula compiles on each use.
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
// create one engine per goroutine (they are cheap). A call may still fan
// its own work out across Options.PoolWorkers goroutines internally, and
// joins them all before it returns.
type Engine struct {
	opts Options
	rng  *rand.Rand
	// kc is the engine's one kernel cache (see kernels); the measurement
	// pools hand every per-item engine the pool owner's.
	kc *kernelCache
	// smp is the sampling scratch, rebound to each kernel (see sampler).
	smp *asymSampler
	// itemEngines are the reusable per-slot engines of this engine's
	// fan-outs: one per pool worker, reseeded per candidate (resetItem),
	// bit-identical to freshly built ones; a parallel sample loop uses
	// only their samplers (sampleAsymRange).
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

// kernels returns the engine's kernel cache, creating the engine's own on
// first use unless UseKernels set one (nil when caching is disabled). The
// cache lives on the engine, so consecutive calls reuse it.
func (e *Engine) kernels() *kernelCache {
	if e.opts.CompileCacheSize < 0 {
		return nil
	}
	if e.kc == nil {
		e.kc = newKernelCache(e.opts.CompileCacheSize)
	}
	return e.kc
}

// poolWorkers resolves Options.PoolWorkers to a concrete goroutine
// budget.
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
// are immutable and all sampling scratch is per engine or per worker.
type Kernels = kernelCache

// NewKernels returns a shared kernel cache holding up to capacity
// compiled formulas (0 uses the default of 1024).
func NewKernels(capacity int) *Kernels {
	if capacity <= 0 {
		capacity = 1024
	}
	return newKernelCache(capacity)
}

// UseKernels makes kc the engine's kernel cache in place of its own, also
// for its measurement pools' per-candidate engines; with a negative
// CompileCacheSize it is never used. Call it right after New.
func (e *Engine) UseKernels(kc *Kernels) { e.kc = kc }

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

// compiledFor returns the kernel of phi from the engine's kernel cache,
// or compiles it afresh when caching is disabled.
func (e *Engine) compiledFor(phi realfmla.Formula) *kernel {
	kc := e.kernels()
	if kc == nil {
		return newKernel(phi)
	}
	return kc.get(realfmla.Fingerprint(phi), phi)
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
	kn := e.compiledFor(phi)
	n := len(kn.vars)

	if n == 0 && !e.opts.ForceSampling {
		return trivialResult(realfmla.Eval(kn.reduced, nil), kn.ambient), nil
	}
	if !e.opts.DisableExact {
		if r, ok, err := e.exactOrder(kn); err != nil {
			return Result{}, err
		} else if ok {
			r.K = kn.ambient
			r.RelevantK = n
			return r, nil
		}
		if r, ok := e.exactSector(kn.reduced); ok {
			r.K = kn.ambient
			r.RelevantK = n
			return r, nil
		}
	}
	r, err := e.additiveApprox(kn, eps, delta)
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
