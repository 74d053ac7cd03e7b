// Benchmarks regenerating the paper's evaluation (Figure 1a/1b/1c) plus
// ablations of the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Figure 1 benches time the per-ε Monte-Carlo confidence computation over
// the 25 candidate tuples of each decision-support query, mirroring
// cmd/experiments; the workload (synthetic sales database, conditional
// join) is built once per process.
package arithdb_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	arithdb "repro"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/mc"
	"repro/internal/poly"
	"repro/internal/realfmla"
	"repro/internal/translate"
)

// workload is the shared Figure 1 setup: database + per-query candidates.
type workload struct {
	db         *arithdb.Database
	candidates map[string][]arithdb.SQLCandidate
}

var (
	wlOnce sync.Once
	wl     *workload
	wlErr  error
)

func figureWorkload(b *testing.B) *workload {
	b.Helper()
	wlOnce.Do(func() {
		d, err := arithdb.GenerateSales(arithdb.SalesConfig{
			Seed:           2020,
			Products:       20000,
			Orders:         16000,
			Market:         4000,
			Segments:       2000,
			NullRate:       0.1,
			MarketNullRate: 0.5,
		})
		if err != nil {
			wlErr = err
			return
		}
		w := &workload{db: d, candidates: make(map[string][]arithdb.SQLCandidate)}
		for name, sql := range map[string]string{
			"CompetitiveAdvantage":    arithdb.QueryCompetitiveAdvantage,
			"NeverKnowinglyUndersold": arithdb.QueryNeverKnowinglyUndersold,
			"UnfairDiscount":          arithdb.QueryUnfairDiscount,
		} {
			q, err := arithdb.ParseSQL(sql)
			if err != nil {
				wlErr = err
				return
			}
			res, err := arithdb.EvaluateSQL(q, d)
			if err != nil {
				wlErr = err
				return
			}
			w.candidates[name] = res.Candidates
		}
		wl = w
	})
	if wlErr != nil {
		b.Fatal(wlErr)
	}
	return wl
}

// benchFigure times one Figure 1 series: the AFPRAS confidence computation
// for all candidate tuples of the query at the given ε, with the paper's
// m = ⌈ε⁻²⌉ sample count.
func benchFigure(b *testing.B, query string) {
	w := figureWorkload(b)
	cands := w.candidates[query]
	if len(cands) == 0 {
		b.Fatalf("no candidates for %s", query)
	}
	for _, eps := range []float64{0.1, 0.05, 0.02, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			engine := arithdb.NewEngine(arithdb.EngineOptions{
				Seed:             7,
				PaperSampleCount: true,
				DisableExact:     true,
				ForceSampling:    true,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cands {
					if _, err := engine.MeasureFormula(c.Phi, eps, 0.25); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFigure1a regenerates Figure 1a (Competitive Advantage runtime
// vs ε).
func BenchmarkFigure1a(b *testing.B) { benchFigure(b, "CompetitiveAdvantage") }

// BenchmarkFigure1aWorkers measures intra-formula sampling parallelism on
// the Figure 1a workload: the same ε=0.02 confidence computation with the
// m samples of each candidate fanned out over a goroutine budget
// (PoolWorkers) of 1, 2 and 4. Values are bit-identical across the
// budgets (see the determinism tests); only the wall clock changes, and
// each parallel MeasureFormula call pays a few allocations for the
// goroutines it starts and joins.
func BenchmarkFigure1aWorkers(b *testing.B) {
	w := figureWorkload(b)
	cands := w.candidates["CompetitiveAdvantage"]
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine := arithdb.NewEngine(arithdb.EngineOptions{
				Seed:             7,
				PaperSampleCount: true,
				DisableExact:     true,
				ForceSampling:    true,
				PoolWorkers:      workers,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cands {
					if _, err := engine.MeasureFormula(c.Phi, 0.02, 0.25); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFigure1aWorkersScaled is the worker benchmark that is actually
// large enough to show multi-core scaling (PoolWorkers 1, 2 and 4, as
// above): BenchmarkFigure1aWorkers runs ε = 0.02 (m = 2500 samples, ten
// 256-sample chunks per candidate), where per-call scheduling overhead
// swamps any parallel win and workers=1/2/4 all land on the same wall
// clock. Here each candidate draws m = 40000
// samples (ε = 0.005, ~157 chunks), so on a multi-core host the sample
// loop dominates and the wall clock scales with the worker count, while
// on a single-core host the three series bound the scheduling overhead
// instead (they should agree within a few percent). Values are
// bit-identical across worker counts either way (see the determinism
// tests); samples/op is reported so throughput comparisons survive
// requeued benchtime.
func BenchmarkFigure1aWorkersScaled(b *testing.B) {
	w := figureWorkload(b)
	cands := w.candidates["CompetitiveAdvantage"]
	const eps = 0.005
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine := arithdb.NewEngine(arithdb.EngineOptions{
				Seed:             7,
				PaperSampleCount: true,
				DisableExact:     true,
				ForceSampling:    true,
				PoolWorkers:      workers,
			})
			samples := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cands {
					r, err := engine.MeasureFormula(c.Phi, eps, 0.25)
					if err != nil {
						b.Fatal(err)
					}
					samples += r.Samples
				}
			}
			b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
		})
	}
}

// BenchmarkCompileCache is the compiled-formula reuse ablation: an ε-sweep
// over the Figure 1a candidates with the engine's compile cache on
// (compile once per candidate) versus off (re-reduce and re-compile every
// call, the pre-cache behavior).
func BenchmarkCompileCache(b *testing.B) {
	w := figureWorkload(b)
	cands := w.candidates["CompetitiveAdvantage"]
	for _, cfg := range []struct {
		name string
		size int
	}{{"cached", 0}, {"uncached", -1}} {
		b.Run(cfg.name, func(b *testing.B) {
			engine := arithdb.NewEngine(arithdb.EngineOptions{
				Seed:             7,
				PaperSampleCount: true,
				DisableExact:     true,
				ForceSampling:    true,
				CompileCacheSize: cfg.size,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, eps := range []float64{0.1, 0.05, 0.02} {
					for _, c := range cands {
						if _, err := engine.MeasureFormula(c.Phi, eps, 0.25); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkFigure1b regenerates Figure 1b (Never Knowingly Undersold).
func BenchmarkFigure1b(b *testing.B) { benchFigure(b, "NeverKnowinglyUndersold") }

// BenchmarkFigure1c regenerates Figure 1c (Unfair Discount).
func BenchmarkFigure1c(b *testing.B) { benchFigure(b, "UnfairDiscount") }

// BenchmarkSQLPipeline is the end-to-end SQL→confidence benchmark of the
// planner/executor refactor: an indexed equality-join query (Competitive
// Advantage over the sales database) answered with per-candidate AFPRAS
// measures at ε = 0.05. Two pipelines:
//
//   - indexed: the planner/executor with hash joins on persistent
//     database indexes, followed by sequential measurement (the
//     materialize-then-measure shape);
//   - fused: Engine.MeasureSQL, streaming enumeration overlapped with
//     concurrent measurement;
//   - race: the served shape — the LIMIT 25 query through the adaptive
//     race at ε = δ = 0.05, a fresh single-worker engine per request over
//     one shared 1024-entry kernel cache. Its allocs/op guard the race's
//     cut: candidates after the 25th certain one are never built,
//     compiled or seeded;
//   - race-nku: the same served shape on Never Knowingly Undersold
//     LIMIT 25, whose planner reorders the joins (order [1 0 2]). Its
//     allocs/op guard the reordered plans' aggregation: derivations are
//     buffered as row ordinals and replayed through the same fold, so
//     only live candidates materialize their tuples and atoms.
func BenchmarkSQLPipeline(b *testing.B) {
	w := figureWorkload(b)
	q, err := arithdb.ParseSQL(arithdb.QueryCompetitiveAdvantage)
	if err != nil {
		b.Fatal(err)
	}
	const eps, delta = 0.05, 0.25
	// NoAdaptive keeps the fused variant on the fixed-budget first-k path
	// this benchmark has always measured (the adaptive LIMIT-k race has
	// its own benchmark, BenchmarkAdaptiveTopK).
	base := arithdb.EngineOptions{Seed: 7, PaperSampleCount: true, DisableExact: true, ForceSampling: true, NoAdaptive: true}

	// Every variant hoists its engine out of the b.N loop, so compiled
	// kernels amortize across iterations: the materializing variant
	// through the engine's own compile cache, the fused pipeline through
	// the shared kernel cache its measurement pool hands to the
	// per-candidate engines (the MeasureBatch determinism contract keeps
	// one engine per candidate; the immutable kernels are shared).
	b.Run("indexed", func(b *testing.B) {
		engine := arithdb.NewEngine(base)
		for i := 0; i < b.N; i++ {
			res, err := engine.EvaluateSQL(q, w.db)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range res.Candidates {
				if _, err := engine.MeasureFormula(c.Phi, eps, delta); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		engine := arithdb.NewEngine(base)
		for i := 0; i < b.N; i++ {
			if _, err := engine.MeasureSQL(q, w.db, eps, delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	served := func(q *arithdb.SQLQuery) func(b *testing.B) {
		return func(b *testing.B) {
			kernels := core.NewKernels(1024)
			for i := 0; i < b.N; i++ {
				engine := core.New(core.Options{Seed: 7, PoolWorkers: 1})
				engine.UseKernels(kernels)
				if _, err := engine.MeasureSQL(q, w.db, 0.05, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("race", served(q))
	nku, err := arithdb.ParseSQL(arithdb.QueryNeverKnowinglyUndersold)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("race-nku", served(nku))
}

// BenchmarkSQLPipelineSweep measures the shared compiled-kernel cache of
// the fused measurement pool: an ε-sweep of repeated MeasureSQL calls on
// one session engine (kernels compiled once, on the first call) against
// the same sweep with a fresh engine per call (every call re-reduces and
// re-compiles all 25 candidate constraints).
func BenchmarkSQLPipelineSweep(b *testing.B) {
	w := figureWorkload(b)
	q, err := arithdb.ParseSQL(arithdb.QueryCompetitiveAdvantage)
	if err != nil {
		b.Fatal(err)
	}
	base := arithdb.EngineOptions{Seed: 7, PaperSampleCount: true, DisableExact: true, ForceSampling: true, NoAdaptive: true}
	sweep := func(b *testing.B, engine *arithdb.Engine) {
		for _, eps := range []float64{0.1, 0.05, 0.02} {
			if _, err := engine.MeasureSQL(q, w.db, eps, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("shared-engine", func(b *testing.B) {
		engine := arithdb.NewEngine(base)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep(b, engine)
		}
	})
	b.Run("fresh-engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep(b, arithdb.NewEngine(base))
		}
	})
}

// mixedWorkloadDB builds the 40k-row relation of the mixed insert/query
// benchmark: R(id base, seg base, val num) with 64 segments and a null
// sprinkle, plus warmed caches (the equality index the query probes and
// the inventories the planner reads).
func mixedWorkloadDB(b *testing.B, rows int) (*arithdb.Database, *arithdb.SQLQuery) {
	b.Helper()
	s := arithdb.MustSchema(arithdb.MustRelation("R",
		arithdb.Col("id", arithdb.BaseCol),
		arithdb.Col("seg", arithdb.BaseCol),
		arithdb.Col("val", arithdb.NumCol)))
	d := arithdb.NewDatabase(s)
	for i := 0; i < rows; i++ {
		v := arithdb.Num(float64(i%1000) / 4)
		if i%10 == 0 {
			v = arithdb.NullNum(i)
		}
		d.MustInsert("R",
			arithdb.Base(fmt.Sprintf("id%d", i)),
			arithdb.Base(fmt.Sprintf("seg%d", i%64)),
			v)
	}
	q, err := arithdb.ParseSQL(`SELECT r.id FROM R r WHERE r.seg = 'seg7' AND r.val > 100 LIMIT 5`)
	if err != nil {
		b.Fatal(err)
	}
	return d, q
}

// BenchmarkMixedInsertQuery is the write-path benchmark of incremental
// index maintenance: each op is one Insert followed by one indexed query
// on a 40k-row relation — the mixed insert/query workload of a live
// console-style measurement service. Two maintenance regimes:
//
//   - incremental: the default — Insert extends the cached equality
//     index groups and inventories in place, so the query's index probe
//     finds hot caches (amortized O(1) maintenance per insert);
//   - snapshot: the server shape — the query runs on db.Snapshot(), so
//     inserts additionally pay the copy-on-write clone of whatever the
//     previous snapshot still shares.
//
// Query results are byte-identical to a from-scratch rebuild (see
// TestIncrementalQueryParity).
func BenchmarkMixedInsertQuery(b *testing.B) {
	const rows = 40000
	engine := arithdb.NewEngine(arithdb.EngineOptions{})
	run := func(b *testing.B, snapshot bool) {
		d, q := mixedWorkloadDB(b, rows)
		// Warm the caches the way the measured regime reads: the snapshot
		// variant warms through a snapshot (the server shape — the writer
		// adopts the snapshot-built indexes), the other on the writer.
		warm := d
		if snapshot {
			warm = d.Snapshot()
		}
		if _, err := engine.EvaluateSQL(q, warm); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.MustInsert("R",
				arithdb.Base(fmt.Sprintf("id%d", rows+i)),
				arithdb.Base(fmt.Sprintf("seg%d", i%64)),
				arithdb.Num(float64(i%1000)/4))
			qd := d
			if snapshot {
				qd = d.Snapshot()
			}
			if _, err := engine.EvaluateSQL(q, qd); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, false) })
	b.Run("snapshot", func(b *testing.B) { run(b, true) })
}

// BenchmarkConditionalJoin times the candidate-generation phase (the role
// Postgres plays in the paper's pipeline).
func BenchmarkConditionalJoin(b *testing.B) {
	w := figureWorkload(b)
	q, err := arithdb.ParseSQL(arithdb.QueryCompetitiveAdvantage)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arithdb.EvaluateSQL(q, w.db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslate times the Prop 5.3 translation on the introduction's
// database and query.
func BenchmarkTranslate(b *testing.B) {
	s := arithdb.MustSchema(
		arithdb.MustRelation("P",
			arithdb.Col("id", arithdb.BaseCol), arithdb.Col("seg", arithdb.BaseCol),
			arithdb.Col("rrp", arithdb.NumCol), arithdb.Col("dis", arithdb.NumCol)),
		arithdb.MustRelation("C",
			arithdb.Col("id", arithdb.BaseCol), arithdb.Col("seg", arithdb.BaseCol),
			arithdb.Col("p", arithdb.NumCol)),
		arithdb.MustRelation("E",
			arithdb.Col("id", arithdb.BaseCol), arithdb.Col("seg", arithdb.BaseCol)),
	)
	d := arithdb.NewDatabase(s)
	d.MustInsert("C", arithdb.Base("c"), arithdb.Base("s"), arithdb.NullNum(0))
	d.MustInsert("P", arithdb.Base("id1"), arithdb.Base("s"), arithdb.Num(10), arithdb.Num(0.8))
	d.MustInsert("P", arithdb.Base("id2"), arithdb.Base("s"), arithdb.NullNum(1), arithdb.Num(0.7))
	d.MustInsert("E", arithdb.NullBase(0), arithdb.Base("s"))
	q := arithdb.MustParseQuery(`
	q(s:base) := forall i:base, r:num, dd:num, i2:base, p:num .
	    (P(i, s, r, dd) and not E(i, s) and C(i2, s, p))
	    -> (r * dd <= p and r >= 0 and dd >= 0 and p >= 0)`)
	args := []arithdb.Value{arithdb.Base("s")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arithdb.Translate(q, d, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsymEvalSample times one Monte-Carlo sample (direction draw +
// asymptotic evaluation) on a Competitive Advantage candidate constraint —
// the inner loop of the AFPRAS.
func BenchmarkAsymEvalSample(b *testing.B) {
	w := figureWorkload(b)
	cand := w.candidates["CompetitiveAdvantage"][0]
	reduced, vars := realfmla.Reduce(cand.Phi)
	if len(vars) == 0 {
		// Fall back to a candidate that has relevant nulls.
		for _, c := range w.candidates["CompetitiveAdvantage"] {
			reduced, vars = realfmla.Reduce(c.Phi)
			if len(vars) > 0 {
				break
			}
		}
	}
	if len(vars) == 0 {
		b.Skip("no constrained candidate in this workload")
	}
	compiled := realfmla.Compile(reduced)
	ev := compiled.NewEvaluator()
	rng := mc.NewRNG(1)
	dir := make([]float64, len(vars))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.FillNormal(rng, dir)
		ev.AsymEval(dir, 1e-12)
	}
}

// BenchmarkExactOrderCells times the exact rational algorithm on a
// 6-variable order formula (2⁶·6! = 46080 cells).
func BenchmarkExactOrderCells(b *testing.B) {
	n := 6
	var conj []realfmla.Formula
	for i := 0; i+1 < n; i++ {
		p := poly.Var(n, i).Sub(poly.Var(n, i+1))
		conj = append(conj, realfmla.FAtom{A: realfmla.Atom{P: p, Rel: realfmla.LT}})
	}
	phi := realfmla.And(conj...)
	e := core.New(core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.MeasureFormula(phi, 0.1, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Exact {
			b.Fatal("expected exact result")
		}
	}
}

// BenchmarkFPRASvsAFPRAS is the Section 7 vs Section 8 ablation on the
// same 3-dimensional linear formula (an octant union): the multiplicative
// union-of-cones estimator against additive direction sampling.
func BenchmarkFPRASvsAFPRAS(b *testing.B) {
	oct := func(sign float64) realfmla.Formula {
		var conj []realfmla.Formula
		for i := 0; i < 3; i++ {
			p := poly.Var(3, i).Scale(-sign)
			conj = append(conj, realfmla.FAtom{A: realfmla.Atom{P: p, Rel: realfmla.LT}})
		}
		return realfmla.And(conj...)
	}
	phi := realfmla.Or(oct(1), oct(-1))
	b.Run("FPRAS", func(b *testing.B) {
		e := core.New(core.Options{Seed: 1})
		for i := 0; i < b.N; i++ {
			if _, err := e.FPRAS(phi, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AFPRAS", func(b *testing.B) {
		e := core.New(core.Options{Seed: 1, DisableExact: true})
		for i := 0; i < b.N; i++ {
			if _, err := e.AdditiveApprox(phi, 0.1, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDirectVsFormulaPath is the ablation between the two AFPRAS
// implementations: sampling over the materialized translation vs direct
// asymptotic evaluation of the query.
func BenchmarkDirectVsFormulaPath(b *testing.B) {
	s := arithdb.MustSchema(arithdb.MustRelation("R",
		arithdb.Col("x", arithdb.NumCol), arithdb.Col("y", arithdb.NumCol)))
	d := arithdb.NewDatabase(s)
	for i := 0; i < 8; i++ {
		d.MustInsert("R", arithdb.NullNum(2*i), arithdb.NullNum(2*i+1))
	}
	q := arithdb.MustParseQuery(`q() := forall x:num, y:num . (R(x, y) -> x + y > 0)`)
	b.Run("formula", func(b *testing.B) {
		phi, err := translate.Query(q, d, nil)
		if err != nil {
			b.Fatal(err)
		}
		e := core.New(core.Options{Seed: 1, DisableExact: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.AdditiveApprox(phi.Phi, 0.05, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		e := core.New(core.Options{Seed: 1})
		for i := 0; i < b.N; i++ {
			if _, err := e.AdditiveApproxDirect(q, d, nil, 0.05, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHitAndRun times one hit-and-run sample from a 6-dimensional
// cone ∩ ball — the inner oracle of the Section 7 FPRAS.
func BenchmarkHitAndRun(b *testing.B) {
	n := 6
	normals := make([][]float64, n)
	for i := range normals {
		c := make([]float64, n)
		c[i] = 1
		normals[i] = c
	}
	body := geometry.NewConeInBall(n, normals)
	x0, _, ok, err := body.InteriorPoint()
	if err != nil || !ok {
		b.Fatalf("interior point: ok=%v err=%v", ok, err)
	}
	s, err := geometry.NewSampler(body, x0, mc.NewRNG(1), 4*n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

// BenchmarkMeasureBatch compares sequential and concurrent confidence
// computation over the Competitive Advantage candidate set.
func BenchmarkMeasureBatch(b *testing.B) {
	w := figureWorkload(b)
	cands := w.candidates["CompetitiveAdvantage"]
	phis := make([]arithdb.Constraint, len(cands))
	for i, c := range cands {
		phis[i] = c.Phi
	}
	opts := arithdb.EngineOptions{Seed: 7, DisableExact: true, ForceSampling: true, PaperSampleCount: true}
	b.Run("sequential", func(b *testing.B) {
		engine := arithdb.NewEngine(opts)
		for i := 0; i < b.N; i++ {
			for _, phi := range phis {
				if _, err := engine.MeasureFormula(phi, 0.02, 0.25); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, errs := arithdb.MeasureBatch(opts, phis, 0.02, 0.25)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkBackgroundMeasure times the Section 10 range-constrained
// measure against the plain AFPRAS on the same constraint.
func BenchmarkBackgroundMeasure(b *testing.B) {
	p := poly.Var(2, 0).Sub(poly.Var(2, 1).Scale(0.7))
	phi := realfmla.FAtom{A: realfmla.Atom{P: p, Rel: realfmla.LE}}
	b.Run("plain", func(b *testing.B) {
		e := core.New(core.Options{Seed: 1, DisableExact: true})
		for i := 0; i < b.N; i++ {
			if _, err := e.AdditiveApprox(phi, 0.02, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ranges", func(b *testing.B) {
		e := core.New(core.Options{Seed: 1})
		bg := core.Background{0: core.AtLeast(0), 1: core.Between(0, 1)}
		for i := 0; i < b.N; i++ {
			if _, err := e.MeasureWithBackground(phi, bg, 0.02, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPartialSamplingAblation measures the Section 9 optimization:
// reducing to the relevant variables before sampling vs sampling every
// null coordinate of the database.
func BenchmarkPartialSamplingAblation(b *testing.B) {
	// A formula over 2 relevant variables embedded in a 500-variable
	// ambient space (a 500-null database where one candidate's constraint
	// touches two nulls).
	n := 500
	p := poly.Var(n, 3).Sub(poly.Var(n, 4).Scale(0.7))
	phi := realfmla.FAtom{A: realfmla.Atom{P: p, Rel: realfmla.LE}}
	b.Run("reduced", func(b *testing.B) {
		e := core.New(core.Options{Seed: 1, DisableExact: true})
		for i := 0; i < b.N; i++ {
			if _, err := e.AdditiveApprox(phi, 0.05, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-dimension", func(b *testing.B) {
		// Simulate the unoptimized sampler: draw all 500 coordinates.
		compiled := realfmla.Compile(phi)
		rng := mc.NewRNG(1)
		m, err := mc.HoeffdingSamples(0.05, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		dir := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hits := 0
			for s := 0; s < m; s++ {
				for j := range dir {
					dir[j] = rng.NormFloat64()
				}
				if compiled.AsymEval(dir, 1e-12) {
					hits++
				}
			}
			_ = hits
		}
	})
}

// benchSector builds a 2-variable conjunction whose asymptotic measure is
// exactly theta/2π: y ≥ 0 ∧ y·cosθ − x·sinθ ≤ 0 carves the sector [0, θ]
// out of the direction sphere. Dialing theta dials the true measure, so
// the adaptive race benchmarks can pit dialed-in skewed and uniform
// candidate fields against each other on the sampling path.
func benchSector(theta float64) arithdb.Constraint {
	return realfmla.And(
		realfmla.FAtom{A: realfmla.Atom{P: poly.Var(2, 1), Rel: realfmla.GE}},
		realfmla.FAtom{A: realfmla.Atom{
			P:   poly.Var(2, 1).Scale(math.Cos(theta)).Sub(poly.Var(2, 0).Scale(math.Sin(theta))),
			Rel: realfmla.LE,
		}},
	)
}

// BenchmarkAdaptiveTopK measures the adaptive top-k sampling race against
// the fixed per-candidate budget it replaces, on two candidate fields:
// "skewed" (20 near-zero losers, 4 clear winners — the race freezes the
// losers out after the first rounds) and "uniform" (measures spread evenly,
// so the ranking stays in doubt longer and the race degrades gracefully
// toward the fixed budget). Each sub-benchmark reports samples/op — the
// total directions drawn per top-k query — which scripts/sample_check.sh
// holds against scripts/sample_budget.txt in `make bench-check`.
func BenchmarkAdaptiveTopK(b *testing.B) {
	const (
		n, k       = 24, 4
		eps, delta = 0.02, 0.25
	)
	shapes := []struct {
		name string
		mus  []float64
	}{
		{"skewed", func() []float64 {
			mus := make([]float64, n)
			for i := range mus {
				mus[i] = 0.04 + 0.001*float64(i%7)
			}
			for w := 0; w < k; w++ {
				mus[(w*n/k+3)%n] = 0.43 - 0.01*float64(w)
			}
			return mus
		}()},
		{"uniform", func() []float64 {
			mus := make([]float64, n)
			for i := range mus {
				mus[i] = 0.05 + 0.9*float64(i)/float64(n)
			}
			return mus
		}()},
	}
	for _, shape := range shapes {
		phis := make([]arithdb.Constraint, len(shape.mus))
		for i, mu := range shape.mus {
			phis[i] = benchSector(mu * 2 * math.Pi)
		}
		opts := core.Options{Seed: 17, DisableExact: true}
		b.Run(shape.name+"/adaptive", func(b *testing.B) {
			e := core.New(opts)
			var samples int64
			for i := 0; i < b.N; i++ {
				res, err := e.MeasureTopK(phis, k, eps, delta)
				if err != nil {
					b.Fatal(err)
				}
				samples += int64(res.SamplesDrawn)
			}
			b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
		})
		b.Run(shape.name+"/fixed", func(b *testing.B) {
			var samples int64
			for i := 0; i < b.N; i++ {
				results, errs := core.MeasureBatch(opts, phis, eps, delta)
				for j, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
					samples += int64(results[j].Samples)
				}
			}
			b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
		})
	}
}
