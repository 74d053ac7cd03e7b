package core

import (
	"math/rand"
	"slices"

	"repro/internal/db"
	"repro/internal/fo"
	"repro/internal/mc"
	"repro/internal/poly"
	"repro/internal/realfmla"
	"repro/internal/value"
)

// sampleCount picks the number of Monte-Carlo samples for additive error
// eps at confidence 1-delta. With Options.PaperSampleCount it reproduces
// the paper's m = ⌈ε⁻²⌉ (analyzed at confidence 3/4); otherwise it uses
// the Hoeffding bound for the requested confidence.
func (e *Engine) sampleCount(eps, delta float64) (int, error) {
	if err := ValidateEpsDelta(eps, delta); err != nil {
		return 0, err
	}
	if e.opts.PaperSampleCount {
		return mc.PaperSamples(eps)
	}
	return mc.HoeffdingSamples(eps, delta)
}

// AdditiveApprox is the AFPRAS of Section 8 applied to a translated
// formula: sample directions a uniformly at random and average the
// indicator of lim_k f_{φ,a}(k). Only the variables that actually occur in
// φ are sampled (the paper's Section 9 optimization); since asymptotic
// truth is invariant under positive scaling of the direction, unnormalized
// Gaussian vectors sample the directional measure exactly.
func (e *Engine) AdditiveApprox(phi realfmla.Formula, eps, delta float64) (Result, error) {
	return e.additiveApprox(e.compiledFor(phi), eps, delta)
}

// additiveApprox is AdditiveApprox on an already-resolved kernel,
// so MeasureFormula does not resolve (or, with caching disabled, compile)
// the same formula twice per call.
func (e *Engine) additiveApprox(kn *kernel, eps, delta float64) (Result, error) {
	m, err := e.sampleCount(eps, delta)
	if err != nil {
		return Result{}, err
	}
	n := len(kn.vars)
	if n == 0 {
		if !e.opts.ForceSampling {
			return trivialResult(realfmla.Eval(kn.reduced, nil), kn.ambient), nil
		}
		// Faithful to the reference implementation: evaluate the (constant)
		// formula once per sample anyway.
		ev := e.sampler(kn).ev
		hits := 0
		for i := 0; i < m; i++ {
			if ev.Eval(nil) {
				hits++
			}
		}
		return Result{
			Value:   float64(hits) / float64(m),
			Method:  MethodAFPRAS,
			Samples: m,
			K:       kn.ambient,
		}, nil
	}
	// One base-seed draw per invocation keeps repeated calls on the same
	// engine statistically independent while making the sample loop itself
	// a pure function of (base, chunk index) — the property the parallel
	// scheduler needs for worker-count-independent results.
	base := e.drawBase()
	hits := e.sampleAsym(kn, m, base)
	return Result{
		Value:     float64(hits) / float64(m),
		Method:    MethodAFPRAS,
		Samples:   m,
		K:         kn.ambient,
		RelevantK: n,
	}, nil
}

// asymChunkSize is the fixed number of samples per scheduling chunk of the
// parallel AFPRAS loop. Each chunk draws its directions from an RNG seeded
// by mc.DeriveSeed(base, chunk), so the total hit count — and therefore
// Result.Value — is bit-identical for a given base seed no matter how many
// workers run or how chunks interleave. Small enough to load-balance a few
// thousand samples across many cores, large enough that per-chunk
// reseeding cost vanishes.
const asymChunkSize = 256

// asymSampler bundles the per-goroutine scratch of the AFPRAS inner loop:
// a formula evaluator, a direction buffer, and an O(1)-reseed RNG. An
// engine or a sample-pool participant owns one and binds it to each
// kernel it samples; chunks reseed the RNG, so no earlier kernel leaves a
// trace. Once its buffers fit, sampling and rebinding allocate nothing.
type asymSampler struct {
	ev  *realfmla.Evaluator
	dir []float64
	src *mc.SplitMix64
	rng *rand.Rand
}

func newAsymSampler() *asymSampler {
	src := mc.NewSplitMix64(0)
	return &asymSampler{ev: new(realfmla.Evaluator), src: src, rng: rand.New(src)}
}

// bind points the sampler at kn's compiled formula, sizing the direction
// buffer to kn's relevant variables.
func (s *asymSampler) bind(kn *kernel) *asymSampler {
	s.ev.Bind(kn.compiled)
	s.dir = slices.Grow(s.dir[:0], len(kn.vars))[:len(kn.vars)]
	return s
}

// sampler returns the engine's sampling scratch bound to kn; parallel
// participants bring their own (runParallel).
func (e *Engine) sampler(kn *kernel) *asymSampler {
	if e.smp == nil {
		e.smp = newAsymSampler()
	}
	return e.smp.bind(kn)
}

// chunk reseeds the sampler's RNG and counts asymptotic hits over count
// Gaussian directions.
func (s *asymSampler) chunk(seed int64, count int) int {
	s.src.Seed(seed)
	hits := 0
	for i := 0; i < count; i++ {
		mc.FillNormal(s.rng, s.dir)
		if s.ev.AsymEval(s.dir, asymTol) {
			hits++
		}
	}
	return hits
}

// chunkLen is the number of samples in chunk ch of an m-sample run.
func chunkLen(m, ch int) int {
	c := m - ch*asymChunkSize
	if c > asymChunkSize {
		c = asymChunkSize
	}
	return c
}

// sampleAsym counts, over m sampled Gaussian directions, how often the
// kernel's compiled formula holds asymptotically, fanning fixed-size
// chunks of samples out over Options.Workers participants (the calling
// goroutine plus the engine's persistent helper pool — see samplePool).
// Every participant owns a private asymSampler and chunks are claimed
// atomically, so the steady-state loop does not allocate at any worker
// count; the single-worker path reuses the engine's sampler across calls
// and kernels.
func (e *Engine) sampleAsym(kn *kernel, m int, base int64) int {
	return e.sampleAsymRange(kn, m, base, 0, (m+asymChunkSize-1)/asymChunkSize)
}

// sampleAsymRange is the resumable form of sampleAsym: it draws only
// chunks [from, to) of the m-sample budget. Chunk seeds depend on (base,
// chunk index) alone, so drawing a budget in installments — the adaptive
// race grows each candidate's prefix round by round — produces exactly
// the samples a single full-budget run would have drawn: the hit counts
// of disjoint ranges sum to the full-budget hit count bit-for-bit.
func (e *Engine) sampleAsymRange(kn *kernel, m int, base int64, from, to int) int {
	workers := e.workers()
	if workers > to-from {
		workers = to - from
	}
	if workers <= 1 {
		s := e.sampler(kn)
		hits := 0
		for ch := from; ch < to; ch++ {
			hits += s.chunk(mc.DeriveSeed(base, int64(ch)), chunkLen(m, ch))
		}
		return hits
	}
	return e.runParallel(kn, workers, m, from, to, base)
}

// AdditiveApproxDirect is the same additive-error scheme evaluated without
// materializing φ: each sampled direction interprets the numerical nulls
// as asymptotic reals k·a_i and the query is evaluated under that numeric
// domain (package fo), which decides lim_k f_{φ,a}(k) directly. This keeps
// the per-sample cost at plain query-evaluation cost and avoids the
// active-domain expansion of the translation, at the price of not being
// able to reduce to the relevant nulls up front.
func (e *Engine) AdditiveApproxDirect(q *fo.Query, d *db.Database, args []value.Value, eps, delta float64) (Result, error) {
	if err := fo.Typecheck(q, d.Schema()); err != nil {
		return Result{}, err
	}
	m, err := e.sampleCount(eps, delta)
	if err != nil {
		return Result{}, err
	}
	tmpl, err := fo.NewDirTemplate(d, asymTol)
	if err != nil {
		return Result{}, err
	}
	ids := tmpl.NullIDs()
	if len(ids) == 0 {
		// No numerical nulls: μ ∈ {0,1}, decided by one evaluation.
		if err := tmpl.SetDirection(fo.Direction{}); err != nil {
			return Result{}, err
		}
		cargs, err := argCells(args, fo.Direction{})
		if err != nil {
			return Result{}, err
		}
		truth, err := fo.Eval(q, tmpl.Instance(), cargs)
		if err != nil {
			return Result{}, err
		}
		return trivialResult(truth, 0), nil
	}

	dir := make(fo.Direction, len(ids))
	hits := 0
	for i := 0; i < m; i++ {
		for _, id := range ids {
			dir[id] = e.rand().NormFloat64()
		}
		if err := tmpl.SetDirection(dir); err != nil {
			return Result{}, err
		}
		cargs, err := argCells(args, dir)
		if err != nil {
			return Result{}, err
		}
		ok, err := fo.Eval(q, tmpl.Instance(), cargs)
		if err != nil {
			return Result{}, err
		}
		if ok {
			hits++
		}
	}
	return Result{
		Value:     float64(hits) / float64(m),
		Method:    MethodAFPRASDirect,
		Samples:   m,
		K:         len(ids),
		RelevantK: len(ids),
	}, nil
}

// argCells converts answer-tuple values into asymptotic cells under the
// sampled direction.
func argCells(args []value.Value, dir fo.Direction) ([]fo.Cell[poly.Uni], error) {
	out := make([]fo.Cell[poly.Uni], len(args))
	for i, a := range args {
		c, err := fo.CellForAnswerValue(a, dir)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
