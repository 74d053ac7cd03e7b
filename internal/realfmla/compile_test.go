package realfmla

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/poly"
)

// randPolyFormula builds a random Boolean combination over atoms whose
// polynomials span every compiled kernel: constants, dense and sparse
// linear forms, and nonlinear terms up to degree 3.
func randPolyFormula(r *rand.Rand, n, depth int) Formula {
	if depth == 0 || r.Intn(3) == 0 {
		p := poly.Const(n, float64(r.Intn(5)-2))
		terms := r.Intn(3) + 1
		for t := 0; t < terms; t++ {
			q := poly.Const(n, float64(r.Intn(7)-3))
			for f := r.Intn(3); f > 0; f-- {
				q = q.Mul(poly.Var(n, r.Intn(n)))
			}
			p = p.Add(q)
		}
		return FAtom{Atom{P: p, Rel: Rel(r.Intn(6))}}
	}
	switch r.Intn(3) {
	case 0:
		return FNot{randPolyFormula(r, n, depth-1)}
	case 1:
		return And(randPolyFormula(r, n, depth-1), randPolyFormula(r, n, depth-1))
	default:
		return Or(randPolyFormula(r, n, depth-1), randPolyFormula(r, n, depth-1))
	}
}

// TestCompiledKernelMatchesNaiveAsymEval cross-validates the compiled
// kernel (dot-product rows, term cascades, epoch-cached truths) against
// the direct per-atom SubstituteRay evaluation on random formulas and
// directions, including degenerate integer directions that force the
// tolerance fallbacks to lower cascade levels.
func TestCompiledKernelMatchesNaiveAsymEval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const tol = 1e-12
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(5)
		f := randPolyFormula(r, n, 3)
		c := Compile(f)
		ev := c.NewEvaluator()
		for s := 0; s < 20; s++ {
			dir := make([]float64, n)
			for i := range dir {
				if s%2 == 0 {
					dir[i] = r.NormFloat64()
				} else {
					dir[i] = float64(r.Intn(5) - 2) // integer: exercises cancellation
				}
			}
			want := AsymEval(f, dir, tol)
			if got := c.AsymEval(dir, tol); got != want {
				t.Fatalf("trial %d: Compiled.AsymEval = %v, naive = %v\nφ = %s\ndir = %v",
					trial, got, want, f, dir)
			}
			if got := ev.AsymEval(dir, tol); got != want {
				t.Fatalf("trial %d: Evaluator.AsymEval = %v, naive = %v\nφ = %s\ndir = %v",
					trial, got, want, f, dir)
			}
		}
	}
}

// TestCompiledKernelMatchesNaivePointEval checks the point-evaluation mode
// of the evaluator against the direct formula evaluation.
func TestCompiledKernelMatchesNaivePointEval(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(4)
		f := randPolyFormula(r, n, 3)
		ev := Compile(f).NewEvaluator()
		for s := 0; s < 10; s++ {
			x := randPt(r, n)
			if got, want := ev.Eval(x), Eval(f, x); got != want {
				t.Fatalf("trial %d: Eval = %v, naive = %v\nφ = %s\nx = %v", trial, got, want, f, x)
			}
		}
	}
}

// TestConcurrentEvaluators: one Compiled shared by many goroutines, each
// with its own Evaluator, agrees with a sequential reference — the sharing
// contract the parallel AFPRAS sampler relies on.
func TestConcurrentEvaluators(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 4
	f := randPolyFormula(r, n, 4)
	c := Compile(f)
	dirs := make([][]float64, 500)
	want := make([]bool, len(dirs))
	for i := range dirs {
		d := make([]float64, n)
		for j := range d {
			d[j] = r.NormFloat64()
		}
		dirs[i] = d
		want[i] = AsymEval(f, d, 1e-12)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := c.NewEvaluator()
			for i, d := range dirs {
				if got := ev.AsymEval(d, 1e-12); got != want[i] {
					t.Errorf("dir %d: concurrent %v, want %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvaluatorMixedMatchesAtomEval checks mixed-mode evaluation against
// the per-atom MixedAsymEval path.
func TestEvaluatorMixedMatchesAtomEval(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(4)
		f := randPolyFormula(r, n, 3)
		c := Compile(f)
		ev := c.NewEvaluator()
		ref := c.NewEvaluator()
		vals := make([]float64, n)
		ray := make([]bool, n)
		for i := range vals {
			vals[i] = r.NormFloat64()
			ray[i] = r.Intn(2) == 0
		}
		want := ref.EvalWith(func(a Atom) bool { return a.MixedAsymEval(vals, ray, 1e-12) })
		if got := ev.MixedAsymEval(vals, ray, 1e-12); got != want {
			t.Fatalf("trial %d: mixed %v, want %v\nφ = %s", trial, got, want, f)
		}
	}
}

// TestFingerprintDistinguishes: fingerprints agree on syntactically equal
// formulas and differ across a corpus of random distinct formulas.
func TestFingerprintDistinguishes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	seen := make(map[FormulaID]string)
	for trial := 0; trial < 500; trial++ {
		f := randPolyFormula(r, 1+r.Intn(4), 3)
		id := Fingerprint(f)
		if id != Fingerprint(f) {
			t.Fatal("fingerprint not deterministic")
		}
		s := f.String()
		if prev, ok := seen[id]; ok && prev != s {
			t.Fatalf("fingerprint collision:\n%s\n%s", prev, s)
		}
		seen[id] = s
	}
}

// bindCases seeds TestEvaluatorBind and FuzzEvaluatorBind: a random
// sequence seed and the number of formulas one evaluator is rebound to.
var bindCases = []struct {
	seed  int64
	steps uint8
}{{1, 40}, {2, 40}, {45, 64}, {7, 3}, {99, 128}}

// checkEvaluatorBind rebinds one evaluator through a seeded random
// sequence of compiled formulas whose ambient arity, atom count and
// maximum degree rise and fall from step to step, and requires AsymEval,
// Eval and MixedAsymEval to agree with a fresh evaluator on every
// formula. It returns how often the atom count and the maximum degree
// grew and shrank between consecutive formulas.
func checkEvaluatorBind(t *testing.T, seed int64, steps int) (atomsUp, atomsDown, degUp, degDown int) {
	t.Helper()
	const tol = 1e-12
	r := rand.New(rand.NewSource(seed))
	ev := new(Evaluator)
	prevAtoms, prevDeg := 0, 0
	for step := 0; step < steps; step++ {
		// Deep formulas over many variables alternate with single atoms
		// over few, so the buffers are outgrown and then oversized.
		n, depth := 1+r.Intn(3), r.Intn(2)
		if step%2 == 0 {
			n, depth = r.Intn(7), 2+r.Intn(3)
		}
		var pool []int
		if n > 0 {
			for k := r.Intn(4); k >= 0; k-- {
				pool = append(pool, r.Intn(n))
			}
		}
		f := randReduceFormula(r, n, pool, depth)
		c := Compile(f)
		ev.Bind(c)
		fresh := c.NewEvaluator()
		// A varying number of evaluations in a random mode order leaves
		// each formula's cached truths under varying epochs, so an epoch
		// that restarted on Bind would read them back as fresh.
		for evals := 1 + r.Intn(6); evals > 0; evals-- {
			v := make([]float64, n)
			ray := make([]bool, n)
			for i := range v {
				if r.Intn(2) == 0 {
					v[i] = r.NormFloat64()
				} else {
					v[i] = float64(r.Intn(5) - 2) // integer: exercises the tolerance fallbacks
				}
				ray[i] = r.Intn(2) == 0
			}
			var got, want bool
			mode := r.Intn(3)
			switch mode {
			case 0:
				got, want = ev.AsymEval(v, tol), fresh.AsymEval(v, tol)
			case 1:
				got, want = ev.Eval(v), fresh.Eval(v)
			default:
				got, want = ev.MixedAsymEval(v, ray, tol), fresh.MixedAsymEval(v, ray, tol)
			}
			if got != want {
				t.Fatalf("seed %d step %d: rebound evaluator = %v, fresh %v (mode %d)\nφ = %s\nv = %v ray = %v", seed, step, got, want, mode, f, v, ray)
			}
		}
		if step > 0 {
			switch a := len(c.atoms); {
			case a > prevAtoms:
				atomsUp++
			case a < prevAtoms:
				atomsDown++
			}
			switch {
			case c.maxDeg > prevDeg:
				degUp++
			case c.maxDeg < prevDeg:
				degDown++
			}
		}
		prevAtoms, prevDeg = len(c.atoms), c.maxDeg
	}
	return
}

// TestEvaluatorBind: one evaluator rebound through random formula
// sequences decides every formula exactly as a fresh evaluator does —
// the contract that lets a sampler carry one evaluator from kernel to
// kernel instead of one per formula.
func TestEvaluatorBind(t *testing.T) {
	for _, bc := range bindCases {
		up, down, degUp, degDown := checkEvaluatorBind(t, bc.seed, int(bc.steps))
		if bc.steps >= 40 && (up == 0 || down == 0 || degUp == 0 || degDown == 0) {
			t.Fatalf("seed %d: atom count grew %d and shrank %d times, max degree grew %d and shrank %d times; the sequence must do all four",
				bc.seed, up, down, degUp, degDown)
		}
	}
}

// FuzzEvaluatorBind is TestEvaluatorBind over fuzzed sequence seeds and
// lengths.
func FuzzEvaluatorBind(f *testing.F) {
	for _, bc := range bindCases {
		f.Add(bc.seed, bc.steps)
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		checkEvaluatorBind(t, seed, int(steps))
	})
}
