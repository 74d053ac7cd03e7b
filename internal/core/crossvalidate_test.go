package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/realfmla"
)

// randOrderFormula builds a random Boolean combination of order atoms
// (z_i < z_j, z_i < c, z_i = z_j, ...) in n variables.
func randOrderFormula(rng *rand.Rand, n, depth int) realfmla.Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		rel := []realfmla.Rel{realfmla.LT, realfmla.LE, realfmla.EQ,
			realfmla.NE, realfmla.GE, realfmla.GT}[rng.Intn(6)]
		i := rng.Intn(n)
		var c []float64
		c0 := float64(rng.Intn(7) - 3)
		if rng.Intn(2) == 0 {
			// single variable: ±z_i + c0
			c = make([]float64, n)
			c[i] = float64(1 - 2*rng.Intn(2))
		} else {
			// difference: z_i - z_j (+ c0)
			j := rng.Intn(n)
			for j == i {
				j = rng.Intn(n)
			}
			c = make([]float64, n)
			c[i], c[j] = 1, -1
		}
		return linAtom(n, c, c0, rel)
	}
	switch rng.Intn(3) {
	case 0:
		return realfmla.FNot{F: randOrderFormula(rng, n, depth-1)}
	case 1:
		return realfmla.And(randOrderFormula(rng, n, depth-1), randOrderFormula(rng, n, depth-1))
	default:
		return realfmla.Or(randOrderFormula(rng, n, depth-1), randOrderFormula(rng, n, depth-1))
	}
}

// TestCrossValidateExactVsSampling pits the three independent
// implementations of ν against each other on random order formulas: exact
// cell enumeration (rational), the AFPRAS (additive sampling), and the
// finite-radius Monte-Carlo estimate at a large radius. All three must
// agree within statistical error — a strong end-to-end consistency check,
// since they share no code path beyond the formula representation.
func TestCrossValidateExactVsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := New(Options{Seed: 7})
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(3)
		phi := randOrderFormula(rng, n, 3)
		exact, ok, err := e.exactOrder(newKernel(phi))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: order formula rejected by exact algorithm: %s", trial, phi)
		}
		approx, err := e.AdditiveApprox(phi, 0.02, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact.Value-approx.Value) > 0.04 {
			t.Errorf("trial %d: exact %.4f vs AFPRAS %.4f\nφ = %s",
				trial, exact.Value, approx.Value, phi)
		}
		mu, err := e.MuAtRadius(phi, 1e6, 40000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact.Value-mu) > 0.03 {
			t.Errorf("trial %d: exact %.4f vs μ_r %.4f\nφ = %s", trial, exact.Value, mu, phi)
		}
	}
}

// TestCrossValidateSectorVsCells: where both exact algorithms apply
// (2-variable order formulas) they must agree to float precision.
func TestCrossValidateSectorVsCells(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	e := New(Options{Seed: 7})
	for trial := 0; trial < 60; trial++ {
		phi := phiReduce(randOrderFormula(rng, 2, 3))
		if realfmla.NumVars(phi) != 2 {
			continue // reduced away a variable; sector n=2 path not exercised
		}
		cells, ok, err := e.exactOrder(newKernel(phi))
		if err != nil || !ok {
			t.Fatal(err)
		}
		sector, ok := e.exactSector(phi)
		if !ok {
			t.Fatalf("trial %d: sector rejected 2-var linear formula", trial)
		}
		if math.Abs(cells.Value-sector.Value) > 1e-9 {
			t.Errorf("trial %d: cells %.6f vs sector %.6f\nφ = %s",
				trial, cells.Value, sector.Value, phi)
		}
	}
}

// TestCrossValidateBackgroundVsPlain: half-line constraints are sign
// conditions on directions, so the conditioned measures have analytic
// sector values: unconditioned μ(z0<z1) = 1/2; within the positive
// quadrant the sector (π/4, π/2) is half the quadrant; conditioning only
// z0 ≥ 0 leaves the sector (π/4, π/2] of the right half-circle = 1/4.
func TestCrossValidateBackgroundVsPlain(t *testing.T) {
	e := New(Options{Seed: 7})
	phi := linAtom(2, []float64{1, -1}, 0, realfmla.LT)
	cases := []struct {
		bg   Background
		want float64
	}{
		{nil, 0.5},
		{Background{0: AtLeast(0), 1: AtLeast(0)}, 0.5},
		{Background{0: AtLeast(0)}, 0.25},
		{Background{0: AtMost(0)}, 0.75},
	}
	for _, c := range cases {
		res, err := e.MeasureWithBackground(phi, c.bg, 0.02, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-c.want) > 0.03 {
			t.Errorf("bg %v: μ = %.4f, want %.2f", c.bg, res.Value, c.want)
		}
	}
}
