package core

import (
	"cmp"
	"context"
	"math"
	"sort"

	"repro/internal/realfmla"
)

// This file implements adaptive sequential sampling for top-k selection:
// a racing controller (the classic best-arm-identification shape) that
// runs candidates in deterministic rounds and spends samples only where
// the ranking is still in doubt. Round r draws every undecided candidate
// up to min(m, asymChunkSize·2ʳ) samples — whole chunks of the exact
// sample stream the fixed-budget path would draw (itemOptions seeding,
// per-chunk SplitMix64 derivation, see sampleAsymRange) — then recomputes
// per-candidate empirical-Bernstein confidence intervals (race.go) and
// freezes candidates whose interval is disjoint from the k-th place:
//
//   - frozen OUT (≥ k candidates provably ahead): stops drawing
//     immediately; it cannot be in the top k.
//   - frozen IN (provably ahead of ≥ n-k candidates): keeps drawing only
//     until its interval halfwidth meets the eps contract, then finishes
//     at its current estimate.
//
// Candidates the intervals never separate run to the full budget m, at
// which point their estimate is bit-identical to the fixed path's.
//
// Candidates after the k-th syntactically certain one (constraint ⊤, so
// ν = 1 exactly) can never place — ties break toward the lower index —
// so the race counts them and freezes them out before round 0 without
// compiling or seeding them; the executor has already skipped building
// their constraints (exec.Options.TopK).
//
// Determinism: every quantity is a pure function of (Options.Seed,
// candidate index, formula, eps, delta, k). Per-candidate base seeds
// come from itemOptions exactly as in MeasureBatch, chunk draws are pure
// in (base, chunk index), and round decisions are computed sequentially
// from the accumulated hit counts — so results are bit-stable across
// PoolWorkers and across repeated runs, the same contract the fixed
// path documents. Ties (equal interval endpoints, e.g. many
// exactly-certain candidates) break toward the lower candidate index,
// which makes an all-certain LIMIT-k query resolve to the first k
// candidates in derivation order — the legacy semantics — with zero
// samples drawn.

// raceItem is the per-candidate state of one adaptive race.
type raceItem struct {
	idx int
	phi realfmla.Formula
	res Result

	// Sampling state (unused when exact).
	base  int64
	m     int // full fixed-path budget
	drawn int // chunks drawn so far
	t     int // samples drawn
	hits  int
	hw    float64 // current unclamped confidence halfwidth

	lo, hi float64 // confidence interval, clamped to [0,1]
	exact  bool    // point interval; no draws
	out    bool    // provably not in the top k
	in     bool    // provably in the top k
	done   bool    // value final (exact, width met, or full budget)
	rounds int
	err    error
}

// estimate is the item's current point estimate.
func (it *raceItem) estimate() float64 { return it.res.Value }

// TopKResult reports an adaptive top-k race over a candidate set.
type TopKResult struct {
	// Winners are the indices of the top-k candidates by measure
	// (ties toward the lower index), ascending — i.e. in the original
	// candidate order, not ranked.
	Winners []int
	// Results holds each winner's measure, parallel to Winners. Sampled
	// winners report Method afpras-race with SamplesDrawn/Rounds set;
	// exactly-evaluated winners keep their exact method.
	Results []Result
	// SamplesDrawn is the total number of direction samples drawn across
	// every candidate, frozen-out losers included — the number to compare
	// against len(phis)·m for the fixed-budget path.
	SamplesDrawn int
	// Rounds is the number of race rounds executed.
	Rounds int
}

// MeasureTopK races the candidate formulas against each other and
// returns the k with the largest measures, spending the sampling budget
// only where the ranking is in doubt. Each candidate is seeded exactly
// as MeasureBatch seeds it (itemOptions), each draw extends a prefix of
// the same deterministic sample stream the fixed path would consume, and
// winners' estimates satisfy the same additive-eps contract at overall
// failure probability delta — but frozen-out candidates stop after a few
// rounds, so skewed candidate sets resolve with a small fraction of the
// len(phis)·m fixed budget. k ≤ 0 or k ≥ len(phis) measures everything
// adaptively (every candidate races only until its width contract).
func (e *Engine) MeasureTopK(phis []realfmla.Formula, k int, eps, delta float64) (*TopKResult, error) {
	return e.MeasureTopKContext(context.Background(), phis, k, eps, delta)
}

// MeasureTopKContext is MeasureTopK with cancellation: the race checks
// ctx between rounds and between the candidates of a round, and returns
// ctx.Err() when it fires.
func (e *Engine) MeasureTopKContext(ctx context.Context, phis []realfmla.Formula, k int, eps, delta float64) (*TopKResult, error) {
	if err := ValidateEpsDelta(eps, delta); err != nil {
		return nil, err
	}
	out := &TopKResult{}
	oc, err := e.race(ctx, phis, k, eps, delta, func(pos, idx int, r Result) error {
		out.Winners = append(out.Winners, idx)
		out.Results = append(out.Results, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.SamplesDrawn = oc.samplesDrawn
	out.Rounds = oc.rounds
	return out, nil
}

// raceOutcome summarizes a completed race for its caller.
type raceOutcome struct {
	delivered    int
	samplesDrawn int
	rounds       int
}

// race is the adaptive controller shared by MeasureTopK and the LIMIT-k
// SQL paths. Winners are handed to deliver in candidate order with
// consecutive positions from 0 — and as early as possible: a winner is
// delivered the moment it is provably in the top k, final (width
// contract met), and every earlier candidate is resolved, so streaming
// consumers see provably-top-k answers while borderline candidates are
// still racing. A deliver error aborts the race and is returned.
func (e *Engine) race(ctx context.Context, phis []realfmla.Formula, k int, eps, delta float64, deliver func(pos, idx int, r Result) error) (raceOutcome, error) {
	var out raceOutcome
	n := len(phis)
	if n == 0 {
		return out, nil
	}
	if k <= 0 || k > n {
		k = n
	}
	m, err := e.sampleCount(eps, delta)
	if err != nil {
		return out, err
	}
	totalChunks := (m + asymChunkSize - 1) / asymChunkSize
	// Round schedule: cumulative chunk targets 1, 2, 4, …, capped at the
	// full budget. totalRounds sizes the per-statement failure budget δ'.
	totalRounds := 1
	for c := 1; c < totalChunks; c <<= 1 {
		totalRounds++
	}
	// Every interval statement over the whole race — n candidates times
	// totalRounds recomputations — must hold simultaneously for the
	// freeze decisions to be sound, so the failure budget is split by a
	// union bound. The resulting intervals are slightly wider than the
	// fixed path's single-shot Hoeffding bound, which only means
	// borderline candidates run closer to the full budget.
	logTerm := math.Log(2 * float64(n) * float64(totalRounds) / delta)

	// hw starts at +Inf so a candidate frozen IN before its first draw
	// (e.g. every candidate at round 0 when k ≥ n) cannot pass the eps
	// width check and finalize with zero samples.
	items := make([]raceItem, n)
	for i := range items {
		items[i] = raceItem{idx: i, phi: phis[i], lo: 0, hi: 1, hw: math.Inf(1)}
	}
	// The cut: once k candidates at indices ≤ b are syntactically certain
	// (ν = 1 exactly), every candidate after b has k candidates ahead of
	// it at every round (aheadOf breaks the tie toward the lower index),
	// so it is frozen out at round 0 whatever its interval. Such a
	// candidate is never prepared — not compiled, not seeded — and keeps
	// the interval [0, 1]. The freeze decisions of the live candidates do
	// not depend on that interval (a live candidate below 1 has the k
	// certain ones ahead of it; one at 1 is ahead of every cut one either
	// way), and n stays the full count in logTerm and rankCounts, so no
	// bit moves.
	live := n
	for i, certain := 0, 0; i < n; i++ {
		if _, ok := phis[i].(realfmla.FTrue); ok {
			if certain++; certain == k {
				live = i + 1
				break
			}
		}
	}
	outCount := 0
	for i := live; i < n; i++ {
		items[i].out = true
		outCount++
	}
	// Prep every live candidate exactly as the fixed path would: per-item
	// seeding, shared kernels, exact methods first, base-seed draw for
	// the samplers. Item preps are independent and pure, so fan-out over
	// the pool engines cannot change any value.
	e.forEachItem(ctx, live, func(eng *Engine, i int) { prepRaceItem(eng, &items[i], m) })
	for i := range items[:live] {
		if err := items[i].err; err != nil {
			return out, err
		}
	}

	lo := make([]float64, n)
	hi := make([]float64, n)
	ahead := make([]int, n)
	behind := make([]int, n)
	inCount := 0
	front, delivered := 0, 0

	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		// Freeze decisions from the current intervals. Frozen items keep
		// their (still valid) last interval, so they stay in the ranking
		// counts without drawing further.
		for i := range items {
			lo[i], hi[i] = items[i].lo, items[i].hi
		}
		rankCounts(lo, hi, ahead, behind)
		for i := range items {
			it := &items[i]
			if it.out || it.in {
				continue
			}
			// The count clamps are a structural safety net: the interval
			// statements make over-freezing a δ'-probability event, and the
			// clamp guarantees ≥ k survivors / ≤ k winners even then.
			if ahead[it.idx] >= k && outCount < n-k {
				it.out = true
				outCount++
				continue
			}
			if behind[it.idx] >= n-k && inCount < k {
				it.in = true
				inCount++
			}
		}
		// Global closures: k winners found means everyone else is out;
		// n-k losers found means every survivor is in.
		if inCount == k {
			for i := range items {
				if it := &items[i]; !it.in && !it.out {
					it.out = true
					outCount++
				}
			}
		} else if outCount == n-k {
			for i := range items {
				if it := &items[i]; !it.in && !it.out {
					it.in = true
					inCount++
				}
			}
		}
		// Finalize values: full budget reached, or frozen in with the
		// interval width meeting the eps contract.
		for i := range items {
			it := &items[i]
			if it.done || it.out || it.exact {
				continue
			}
			if it.t >= it.m || (it.in && it.hw <= eps) {
				it.done = true
			}
		}
		if err := raceFrontier(items, &front, &delivered, deliver); err != nil {
			return out, err
		}
		allSettled := true
		for i := range items {
			if !items[i].out && !items[i].done {
				allSettled = false
				break
			}
		}
		if allSettled {
			break
		}

		// Draw round: extend every still-racing candidate's sample prefix
		// to the round target. Hit counting is pure per (item, chunk
		// range), so the fan-out cannot change any value.
		target := totalChunks
		if round < 31 && 1<<round < totalChunks {
			target = 1 << round
		}
		e.forEachItem(ctx, live, func(eng *Engine, i int) {
			it := &items[i]
			if it.out || it.done || it.exact || it.drawn >= target {
				return
			}
			kn := eng.compiledFor(it.phi)
			it.hits += eng.sampleAsymRange(kn, it.m, it.base, it.drawn, target)
			it.drawn = target
			it.t = it.m
			if target*asymChunkSize < it.m {
				it.t = target * asymChunkSize
			}
			it.rounds++
			p := float64(it.hits) / float64(it.t)
			it.hw = ebHalfwidth(it.hits, it.t, logTerm)
			it.lo = math.Max(0, p-it.hw)
			it.hi = math.Min(1, p+it.hw)
			it.res.Value = p
			it.res.Samples = it.t
			it.res.SamplesDrawn = it.t
			it.res.Rounds = it.rounds
		})
		out.rounds++
	}

	// Budget exhausted with the ranking still ambiguous for some
	// candidates (intervals overlapping within eps): resolve the
	// remaining slots by the final point estimates, ties toward the
	// lower index — exactly how the full-budget reference ranks, and the
	// undecided estimates ARE the full-budget values bit-for-bit.
	if inCount < k {
		var open []*raceItem
		for i := range items {
			if it := &items[i]; !it.in && !it.out {
				open = append(open, it)
			}
		}
		sort.Slice(open, func(a, b int) bool {
			// cmp.Compare, not raw float compares: it is a total order, so
			// the sort stays a strict weak ordering (and deterministic)
			// even if an estimate were ever NaN.
			va, vb := open[a].estimate(), open[b].estimate()
			if c := cmp.Compare(va, vb); c != 0 {
				return c > 0
			}
			return open[a].idx < open[b].idx
		})
		for _, it := range open {
			if inCount < k {
				it.in = true
				inCount++
			} else {
				it.out = true
				outCount++
			}
		}
		if err := raceFrontier(items, &front, &delivered, deliver); err != nil {
			return out, err
		}
	}
	out.delivered = delivered
	for i := range items {
		out.samplesDrawn += items[i].t
	}
	return out, nil
}

// raceFrontier advances the in-order delivery frontier: frozen-out
// candidates are skipped, finalized winners are delivered with
// consecutive positions, and the first still-racing candidate blocks
// (its outcome decides whether later winners shift position).
func raceFrontier(items []raceItem, front, delivered *int, deliver func(pos, idx int, r Result) error) error {
	for *front < len(items) {
		it := &items[*front]
		if it.out {
			*front++
			continue
		}
		if it.in && it.done {
			if deliver != nil {
				if err := deliver(*delivered, it.idx, it.res); err != nil {
					return err
				}
			}
			*delivered++
			*front++
			continue
		}
		return nil
	}
	return nil
}

// prepRaceItem initializes one race candidate on a per-item engine that
// resetItem has already seeded, mirroring MeasureFormula's dispatch
// exactly: trivial and exact methods resolve to point intervals with no
// sampling, everything else becomes a sampling item whose base seed is
// drawn precisely where the fixed path would draw it.
func prepRaceItem(eng *Engine, it *raceItem, m int) {
	point := func(r Result) {
		it.res = r
		it.exact = true
		it.done = true
		it.lo = math.Max(0, math.Min(1, r.Value))
		it.hi = it.lo
	}
	kn := eng.compiledFor(it.phi)
	n := len(kn.vars)
	if n == 0 {
		// With ForceSampling the fixed path still evaluates the constant
		// formula m times; the value is the same either way, so the race
		// treats it as decided (determinism across worker counts is
		// unaffected — the fixed path is only reproduced bit-for-bit in
		// its default configuration).
		point(trivialResult(realfmla.Eval(kn.reduced, nil), kn.ambient))
		return
	}
	if !eng.opts.DisableExact {
		if r, ok, err := eng.exactOrder(kn); err != nil {
			it.err = err
			return
		} else if ok {
			r.K = kn.ambient
			r.RelevantK = n
			point(r)
			return
		}
		if r, ok := eng.exactSector(kn.reduced); ok {
			r.K = kn.ambient
			r.RelevantK = n
			point(r)
			return
		}
	}
	it.m = m
	it.base = eng.drawBase()
	it.res = Result{Method: MethodAFPRASRace, K: kn.ambient, RelevantK: n}
}
