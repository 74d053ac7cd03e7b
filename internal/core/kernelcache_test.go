package core

import (
	"context"
	"testing"

	"repro/internal/poly"
	"repro/internal/realfmla"
)

// sampledFormulas returns count distinct formulas of one shape — the same
// two relevant variables among four, the same atoms, only a constant
// differing — that no exact method decides (a product of nulls).
func sampledFormulas(count int) []realfmla.Formula {
	const n = 4
	phis := make([]realfmla.Formula, count)
	for i := range phis {
		c := float64(i+1) / 8
		prod := poly.Var(n, 1).Mul(poly.Var(n, 3)).Sub(poly.Const(n, c))
		phis[i] = realfmla.Or(
			realfmla.FAtom{A: realfmla.Atom{P: prod, Rel: realfmla.GT}},
			linAtom(n, []float64{0, 1, 0, -c}, c, realfmla.LT))
	}
	return phis
}

// TestFreshEngineAllocsIndependentOfFormulaCount: a fresh engine over a
// warm shared kernel cache allocates its sampling scratch once, not once
// per formula it touches — measuring 40 formulas allocates what measuring
// 10 does.
func TestFreshEngineAllocsIndependentOfFormulaCount(t *testing.T) {
	phis := sampledFormulas(40)
	kc := NewKernels(0)
	opts := Options{Seed: 7, DisableExact: true, PoolWorkers: 1}
	warm := New(opts)
	warm.UseKernels(kc)
	for _, phi := range phis {
		if _, err := warm.MeasureFormula(phi, 0.2, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(count int) float64 {
		return testing.AllocsPerRun(20, func() {
			e := New(opts)
			e.UseKernels(kc)
			for _, phi := range phis[:count] {
				if r, err := e.MeasureFormula(phi, 0.2, 0.25); err != nil || r.Method != MethodAFPRAS {
					t.Fatalf("MeasureFormula = %+v, %v; want an AFPRAS estimate", r, err)
				}
			}
		})
	}
	if a10, a40 := allocs(10), allocs(40); a40 != a10 {
		t.Errorf("a fresh engine allocates %v measuring 10 formulas and %v measuring 40; scratch must not scale with the formulas touched", a10, a40)
	}
}

// TestCompileCacheDisabled: a negative CompileCacheSize means no cache at
// all — not the engine's own and not one handed over with UseKernels,
// whose contents stay untouched by the engine and its measurement pools —
// and the values equal the default configuration's.
func TestCompileCacheDisabled(t *testing.T) {
	phis := append(detFormulas(), sampledFormulas(3)...)
	for _, workers := range []int{1, 3} {
		kc := NewKernels(0)
		off := New(Options{Seed: 11, DisableExact: true, PoolWorkers: workers, CompileCacheSize: -1})
		off.UseKernels(kc)
		def := New(Options{Seed: 11, DisableExact: true, PoolWorkers: workers})
		for i, phi := range phis {
			a, err := off.MeasureFormula(phi, 0.1, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			b, err := def.MeasureFormula(phi, 0.1, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("workers %d formula %d: uncached %+v, default %+v", workers, i, a, b)
			}
		}
		// The measurement pools hand their item engines the owner's cache.
		pooled := func(e *Engine) []Result {
			out := make([]Result, len(phis))
			e.forEachItem(context.Background(), len(phis), func(eng *Engine, i int) {
				r, err := eng.MeasureFormula(phis[i], 0.1, 0.25)
				if err != nil {
					t.Error(err)
				}
				out[i] = r
			})
			return out
		}
		offPool, defPool := pooled(off), pooled(def)
		for i := range phis {
			if offPool[i] != defPool[i] {
				t.Errorf("workers %d pooled item %d: uncached %+v, default %+v", workers, i, offPool[i], defPool[i])
			}
		}
		if n := len(kc.m); n != 0 {
			t.Errorf("workers %d: an engine with caching disabled left %d kernels in the cache it was handed", workers, n)
		}
	}
}
