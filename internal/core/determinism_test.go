package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/poly"
	"repro/internal/realfmla"
)

// detFormulas is a mix of linear and nonlinear formulas exercising every
// atom kernel of the compiled evaluator (dense linear rows, sparse
// cascades, nonlinear cascades, constants).
func detFormulas() []realfmla.Formula {
	quad := func(n, i, j int, rel realfmla.Rel) realfmla.Formula {
		p := poly.Var(n, i).Mul(poly.Var(n, j)).Sub(poly.Const(n, 1))
		return realfmla.FAtom{A: realfmla.Atom{P: p, Rel: rel}}
	}
	return []realfmla.Formula{
		linAtom(3, []float64{1, -1, 0}, 0, realfmla.LT),
		realfmla.And(
			linAtom(4, []float64{1, -1, 1, -1}, 2, realfmla.LE),
			realfmla.Or(
				linAtom(4, []float64{0, 0, 1, 0}, 0, realfmla.GT),
				quad(4, 0, 3, realfmla.LT))),
		realfmla.Or(
			quad(5, 0, 1, realfmla.GE),
			realfmla.FNot{F: linAtom(5, []float64{0, 1, 0, 0, -1}, 3, realfmla.LT)}),
	}
}

// TestAdditiveApproxDeterministicAcrossWorkers: for a fixed Options.Seed,
// AdditiveApprox returns bit-identical values across repeated runs and
// across goroutine budgets — the contract that lets deployments tune
// PoolWorkers without changing any measured value. The budgets include
// one wider than the call's chunk count.
func TestAdditiveApproxDeterministicAcrossWorkers(t *testing.T) {
	for i, phi := range detFormulas() {
		var ref Result
		for run := 0; run < 2; run++ {
			for _, workers := range []int{1, 4, 64} {
				e := New(Options{Seed: 42, DisableExact: true, PoolWorkers: workers})
				res, err := e.AdditiveApprox(phi, 0.05, 0.25)
				if err != nil {
					t.Fatalf("formula %d workers %d: %v", i, workers, err)
				}
				if run == 0 && workers == 1 {
					ref = res
					continue
				}
				if res.Value != ref.Value {
					t.Errorf("formula %d run %d workers %d: value %v differs from reference %v",
						i, run, workers, res.Value, ref.Value)
				}
			}
		}
	}
}

// TestNoGoroutineOutlivesCall: a single formula spends its goroutine
// budget on its sample chunks and joins every goroutine it started
// before it returns — no forced GC, and the engine still reachable.
func TestNoGoroutineOutlivesCall(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(Options{Seed: 3, DisableExact: true, PoolWorkers: 4})
	if _, err := e.AdditiveApprox(detFormulas()[1], 0.02, 0.25); err != nil {
		t.Fatal(err)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(200 * time.Millisecond); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutine(s) outlive AdditiveApprox at PoolWorkers 4", n-base)
	}
	runtime.KeepAlive(e)
}

// TestSampleAsymRangeInstallments: drawing chunks [0,a) and then [a,b)
// at width 3 counts exactly the hits one draw of [0,b) at width 1 does —
// the property the adaptive race's round-by-round prefixes rely on.
func TestSampleAsymRangeInstallments(t *testing.T) {
	const chunks, base = 7, int64(20200)
	const m = chunks*asymChunkSize - 17 // a short last chunk
	for i, phi := range detFormulas() {
		seq := New(Options{Seed: 5, PoolWorkers: 1})
		par := New(Options{Seed: 5, PoolWorkers: 3})
		kn := seq.compiledFor(phi)
		for b := 1; b <= chunks; b++ {
			want := seq.sampleAsymRange(kn, m, base, 0, b)
			for a := 0; a <= b; a++ {
				got := par.sampleAsymRange(kn, m, base, 0, a) + par.sampleAsymRange(kn, m, base, a, b)
				if got != want {
					t.Errorf("formula %d: [0,%d)+[%d,%d) at width 3 counts %d hits, [0,%d) at width 1 counts %d",
						i, a, a, b, got, b, want)
				}
			}
		}
	}
}

// TestMeasureBatchDeterministicAcrossWorkers: MeasureBatch results are
// bit-identical across repeated runs and across Options.PoolWorkers
// settings.
func TestMeasureBatchDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	phis := detFormulas()
	for i := 0; i < 10; i++ {
		phis = append(phis, randOrderFormula(rng, 2+rng.Intn(3), 3))
	}
	var ref []Result
	for run := 0; run < 2; run++ {
		for _, workers := range []int{1, 4} {
			res, errs := MeasureBatch(Options{Seed: 9, DisableExact: true, PoolWorkers: workers},
				phis, 0.05, 0.25)
			for j, err := range errs {
				if err != nil {
					t.Fatalf("formula %d: %v", j, err)
				}
			}
			if ref == nil {
				ref = res
				continue
			}
			for j := range res {
				if res[j].Value != ref[j].Value {
					t.Errorf("run %d workers %d formula %d: value %v differs from reference %v",
						run, workers, j, res[j].Value, ref[j].Value)
				}
			}
		}
	}
}

// TestAdditiveApproxCacheInvariant: measuring through a warm compile cache
// and with caching disabled yields identical values — the cache is purely
// a preprocessing reuse, invisible to the sampled result.
func TestAdditiveApproxCacheInvariant(t *testing.T) {
	for i, phi := range detFormulas() {
		warm := New(Options{Seed: 3, DisableExact: true})
		if _, err := warm.AdditiveApprox(phi, 0.1, 0.25); err != nil {
			t.Fatal(err)
		}
		// Re-seed a fresh engine so the rng stream restarts, then compare a
		// cached second engine against one with the cache disabled.
		a := New(Options{Seed: 3, DisableExact: true})
		b := New(Options{Seed: 3, DisableExact: true, CompileCacheSize: -1})
		ra, err := a.AdditiveApprox(phi, 0.1, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		// Warm a's cache entry is per-engine; hit it a second time too.
		ra2, err := New(Options{Seed: 3, DisableExact: true}).AdditiveApprox(phi, 0.1, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.AdditiveApprox(phi, 0.1, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Value != rb.Value || ra.Value != ra2.Value {
			t.Errorf("formula %d: cached %v / %v vs uncached %v", i, ra.Value, ra2.Value, rb.Value)
		}
	}
}

// TestCompileCacheEviction: a working set larger than the cache keeps
// returning correct values (entries are evicted one at a time, and a
// recompiled formula behaves identically to a cached one).
func TestCompileCacheEviction(t *testing.T) {
	phis := detFormulas()
	tiny := New(Options{Seed: 5, DisableExact: true, CompileCacheSize: len(phis) - 1})
	big := New(Options{Seed: 5, DisableExact: true})
	for round := 0; round < 3; round++ {
		for i, phi := range phis {
			a, err := tiny.AdditiveApprox(phi, 0.1, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			b, err := big.AdditiveApprox(phi, 0.1, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if a.Value != b.Value {
				t.Errorf("round %d formula %d: tiny-cache %v vs full-cache %v",
					round, i, a.Value, b.Value)
			}
		}
	}
}
