package realfmla

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/poly"
)

// refReduce is the K-scan Reduce this package shipped before its cost
// stopped depending on the ambient arity: a used-flag per ambient variable
// per atom, a K-long rename mapping, a sort per renamed monomial. It is
// the reference the differential test below holds Reduce to, bit for bit.
func refReduce(f Formula) (Formula, []int) {
	used := make([]bool, NumVars(f))
	for _, a := range Atoms(f) {
		for i, u := range refVarsUsed(a.P) {
			if u {
				used[i] = true
			}
		}
	}
	var vars []int
	mapping := make([]int, len(used))
	for i := range mapping {
		mapping[i] = -1
	}
	for i, u := range used {
		if u {
			mapping[i] = len(vars)
			vars = append(vars, i)
		}
	}
	newN := len(vars)
	g := MapAtoms(f, func(a Atom) Formula {
		return FAtom{Atom{P: refRenameVars(a.P, mapping, newN), Rel: a.Rel}}
	})
	return g, vars
}

func refVarsUsed(p poly.Poly) []bool {
	used := make([]bool, p.N)
	for _, t := range p.Terms {
		for _, v := range t.Vars {
			used[v.Var] = true
		}
	}
	return used
}

// refRenameVars ends, as the old poly.RenameVars did, in poly's normalize
// (reached through Add with the zero polynomial).
func refRenameVars(p poly.Poly, mapping []int, newN int) poly.Poly {
	ts := make([]poly.Term, len(p.Terms))
	for ti, t := range p.Terms {
		vs := make([]poly.VarPow, len(t.Vars))
		for i, v := range t.Vars {
			if mapping[v.Var] < 0 {
				panic(fmt.Sprintf("poly: RenameVars drops used variable z%d", v.Var))
			}
			vs[i] = poly.VarPow{Var: mapping[v.Var], Pow: v.Pow}
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a].Var < vs[b].Var })
		ts[ti] = poly.Term{Coef: t.Coef, Vars: vs}
	}
	return poly.Poly{N: newN, Terms: ts}.Add(poly.Zero(newN))
}

// refCompileAtoms is Compile's atom table as the string-keyed dedupe
// built it: first occurrence wins, keyed by relation and a formatted dump
// of every coefficient's bits and every variable's power.
func refCompileAtoms(f Formula) []Atom {
	seen := make(map[string]bool)
	var out []Atom
	for _, a := range Atoms(f) {
		var b strings.Builder
		fmt.Fprintf(&b, "%d|", a.Rel)
		for _, t := range a.P.Terms {
			fmt.Fprintf(&b, "%x", math.Float64bits(t.Coef))
			for _, v := range t.Vars {
				fmt.Fprintf(&b, ",%d^%d", v.Var, v.Pow)
			}
			b.WriteByte(';')
		}
		if k := b.String(); !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}

// randReduceFormula draws a formula over n ambient variables whose atoms
// mention only the indices in pool: nested FNot/FAnd/FOr (built both as
// literals and through the flattening constructors), FTrue/FFalse leaves,
// constant atoms, zero-term polynomials, repeated variables and powers up
// to 3.
func randReduceFormula(r *rand.Rand, n int, pool []int, depth int) Formula {
	if depth == 0 || r.Intn(3) == 0 {
		switch k := r.Intn(12); {
		case k == 0:
			return FTrue{}
		case k == 1:
			return FFalse{}
		case k == 2:
			return FAtom{Atom{P: poly.Zero(n), Rel: Rel(r.Intn(6))}}
		case k == 3 || len(pool) == 0:
			return FAtom{Atom{P: poly.Const(n, float64(r.Intn(7)-3)), Rel: Rel(r.Intn(6))}}
		}
		p := poly.Const(n, float64(r.Intn(5)-2))
		for terms := r.Intn(4) + 1; terms > 0; terms-- {
			q := poly.Const(n, r.NormFloat64())
			for f := r.Intn(4); f > 0; f-- {
				q = q.Mul(poly.Var(n, pool[r.Intn(len(pool))]))
			}
			p = p.Add(q)
		}
		return FAtom{Atom{P: p, Rel: Rel(r.Intn(6))}}
	}
	kids := make([]Formula, 1+r.Intn(3))
	for i := range kids {
		kids[i] = randReduceFormula(r, n, pool, depth-1)
	}
	switch r.Intn(5) {
	case 0:
		return FNot{kids[0]}
	case 1:
		return FAnd{kids}
	case 2:
		return FOr{kids}
	case 3:
		return And(kids...)
	default:
		return Or(kids...)
	}
}

// TestReduceMatchesKScan holds Reduce to the K-scan reference on seeded
// random formulas at ambient arities from 0 to 5000: Equal formulas and
// equal variable lists, nil included when no variable is used. It also
// holds Compile's deduplicated atom table, before and after the
// reduction, to the string-keyed reference: same count, same order.
func TestReduceMatchesKScan(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	arities := []int{0, 1, 2, 3, 7, 64, 1000, 5000}
	for trial := 0; trial < 600; trial++ {
		n := arities[trial%len(arities)]
		if trial%3 == 0 {
			n = r.Intn(5001)
		}
		var pool []int
		if n > 0 {
			for k := r.Intn(7); k >= 0; k-- {
				pool = append(pool, r.Intn(n))
			}
		}
		f := randReduceFormula(r, n, pool, 4)
		want, wantVars := refReduce(f)
		got, gotVars := Reduce(f)
		if !Equal(got, want) {
			t.Fatalf("trial %d (N=%d): Reduce =\n%s\nK-scan reference =\n%s", trial, n, got, want)
		}
		if (gotVars == nil) != (wantVars == nil) || !slices.Equal(gotVars, wantVars) {
			t.Fatalf("trial %d (N=%d): vars = %#v, K-scan reference %#v", trial, n, gotVars, wantVars)
		}
		for _, g := range []Formula{f, got} {
			atoms, ref := Compile(g).Atoms(), refCompileAtoms(g)
			if len(atoms) != len(ref) {
				t.Fatalf("trial %d: Compile kept %d atoms, string-keyed reference %d\nφ = %s", trial, len(atoms), len(ref), g)
			}
			for i := range ref {
				if atoms[i].Rel != ref[i].Rel || !atoms[i].P.Equal(ref[i].P) {
					t.Fatalf("trial %d: atom %d is %s, string-keyed reference %s", trial, i, atoms[i], ref[i])
				}
			}
		}
	}
}

// reduceFixture is shaped like a Figure-1 candidate constraint: a
// disjunction of five derivations, each a conjunction of four atoms (a
// linear comparison, a product of two nulls, a scaled difference, a
// constant), over the live variables embedded among n ambient ones.
func reduceFixture(n int, live []int) Formula {
	z := func(i int) poly.Poly { return poly.Var(n, live[i%len(live)]) }
	ders := make([]Formula, 5)
	for d := range ders {
		ders[d] = And(
			FAtom{Atom{P: z(d).Sub(z(d + 1)).Add(poly.Const(n, float64(d))), Rel: LE}},
			FAtom{Atom{P: z(d).Mul(z(d + 2)).Sub(poly.Const(n, 50)), Rel: LT}},
			FAtom{Atom{P: z(d + 1).Scale(0.9).Sub(z(d + 3)), Rel: GT}},
			FAtom{Atom{P: poly.Const(n, float64(d-2)), Rel: NE}},
		)
	}
	return Or(ders...)
}

// TestReduceAllocsIndependentOfArity guards against the K-scan coming
// back: one formula embedded among 8 and among 1<<20 ambient variables
// must cost Reduce the same bytes per call (the K-scan allocated three
// arity-long arrays, one of them per atom).
func TestReduceAllocsIndependentOfArity(t *testing.T) {
	live := []int{1, 3, 4, 6, 7}
	bytesAt := func(n int) int64 {
		f := reduceFixture(n, live)
		return testing.Benchmark(func(b *testing.B) {
			for b.Loop() {
				Reduce(f)
			}
		}).AllocedBytesPerOp()
	}
	if small, large := bytesAt(8), bytesAt(1<<20); small != large {
		t.Fatalf("Reduce allocates %d B/op at N = 8 but %d B/op at N = 1<<20", small, large)
	}
}

// TestCompileProbesPastHashCollisions forces a dedupe-hash collision: an
// atom whose hash names another atom's slot must get a slot of its own,
// and both must keep resolving to their own slots afterwards.
func TestCompileProbesPastHashCollisions(t *testing.T) {
	a := Atom{P: poly.Var(2, 0), Rel: LT}
	b := Atom{P: poly.Var(2, 1), Rel: LT}
	c := &Compiled{}
	index := make(map[uint64]int)
	if i := c.intern(a, index); i != 0 {
		t.Fatalf("first atom interned at %d", i)
	}
	h := newFPHash()
	h.atom(b)
	index[h.a] = 0 // b's hash now names a's slot
	for _, tc := range []struct {
		a    Atom
		want int
	}{{b, 1}, {b, 1}, {a, 0}} {
		if got := c.intern(tc.a, index); got != tc.want {
			t.Fatalf("intern(%s) = %d, want %d", tc.a, got, tc.want)
		}
	}
	if len(c.atoms) != 2 {
		t.Fatalf("%d atoms interned, want 2", len(c.atoms))
	}
}

// BenchmarkReduce times Reduce at Figure-1 arity: 20 atoms over five live
// variables among K = 11 208 ambient nulls (allocs/op guarded by
// scripts/alloc_check.sh).
func BenchmarkReduce(b *testing.B) {
	f := reduceFixture(11208, []int{17, 2310, 5071, 8800, 11207})
	b.ReportAllocs()
	for b.Loop() {
		Reduce(f)
	}
}
