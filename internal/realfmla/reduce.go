package realfmla

import "slices"

// MapAtoms rebuilds the formula with every atom transformed by fn (which
// may also fold an atom to FTrue/FFalse).
func MapAtoms(f Formula, fn func(Atom) Formula) Formula {
	switch g := f.(type) {
	case FTrue, FFalse:
		return g
	case FAtom:
		return fn(g.A)
	case FNot:
		return FNot{MapAtoms(g.F, fn)}
	case FAnd:
		out := make([]Formula, len(g.Fs))
		for i, h := range g.Fs {
			out[i] = MapAtoms(h, fn)
		}
		return And(out...)
	case FOr:
		out := make([]Formula, len(g.Fs))
		for i, h := range g.Fs {
			out[i] = MapAtoms(h, fn)
		}
		return Or(out...)
	}
	panic("realfmla: unknown node")
}

// AppendVars appends to dst the variable of each occurrence in f's atoms,
// left to right, duplicates included: the raw material of Reduce, and of
// a caller collecting the nulls a set of formulas mentions (sort and
// compact once at the end).
func AppendVars(dst []int, f Formula) []int {
	walkAtoms(f, func(a Atom) bool {
		for _, t := range a.P.Terms {
			for _, v := range t.Vars {
				dst = append(dst, v.Var)
			}
		}
		return true
	})
	return dst
}

// Reduce re-embeds the formula into the smallest variable space: variables
// not occurring in any atom are dropped. It returns the reduced formula and
// the list of original variable indices, in order (vars[j] is the original
// index of reduced variable j), nil when no atom mentions a variable.
//
// This implements the partial-sampling optimization of the paper's Section
// 9: μ only depends on the nulls that actually affect the query, because
// the satisfying set is a cylinder over the irrelevant coordinates and the
// direction-fraction measure ν is invariant under cylinder extension.
//
// Reduce costs O(|φ| log |φ|) in the size of the formula: it collects the
// variable occurrences of the atoms, sorts and dedupes them, and renames
// each by binary search. Nothing in it depends on the ambient arity
// NumVars(f) — the database's null count, thousands on the Figure-1
// database, where a candidate's formula mentions a handful.
func Reduce(f Formula) (Formula, []int) {
	// A candidate's occurrences usually fit on the stack; vars is copied
	// out at its deduplicated length.
	var buf [64]int
	used := AppendVars(buf[:0], f)
	slices.Sort(used)
	var vars []int
	if used = slices.Compact(used); len(used) > 0 {
		vars = append(vars, used...)
	}
	g := MapAtoms(f, func(a Atom) Formula {
		return FAtom{Atom{P: a.P.RenameVars(vars), Rel: a.Rel}}
	})
	return g, vars
}
