package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/realfmla"
)

// This file is the one candidate-measurement pipeline behind MeasureSQL,
// MeasureSQLStream, MeasureCandidatesStream, MeasureBatch and the
// adaptive race — the paper's "for every candidate tuple, compute the
// measure of certainty of its constraint" step (Section 9):
//
//	candidateSource → forEachItem (scheduler) → orderedYield (emitter)
//	→ collectSQL (the collector of the buffered entry points)
//
// Determinism: a measure is a pure function of (Options.Seed, candidate
// index, formula, eps, delta); forEachItem seeds by index alone, so no
// choice of source, pool width or delivery timing can move a bit.
//
// Error policy: every run derives one context. The first error — from a
// measurement, from yield, or from the caller's ctx — cancels it with
// that error as the cause; workers then skip what is left (each finishes
// at most the candidate it holds), enumeration aborts at its next
// Interrupt poll, delivery stops, and the cause is what the run returns.

// candidateSource produces the candidate set of one run: the executor's
// result, aggregated under limit and the race cut topK (exec.Options.TopK),
// plus the marks of the candidates whose constraint saturated to true
// mid-enumeration and were already handed to onSaturated (nil marks: none
// were).
type candidateSource func(limit, topK int, interrupt func() error, onSaturated func(int, exec.Candidate)) (*exec.Result, []bool, error)

// fusedSource enumerates plan p over d, fused with aggregation
// (exec.Aggregate).
func (e *Engine) fusedSource(p *plan.Plan, d *db.Database) candidateSource {
	return func(limit, topK int, interrupt func() error, onSaturated func(int, exec.Candidate)) (*exec.Result, []bool, error) {
		pl := *p
		pl.Limit = limit
		eo := e.ExecOptions()
		eo.Interrupt, eo.TopK = interrupt, topK
		return exec.Aggregate(&pl, d, eo, onSaturated)
	}
}

// finishedSource is an already aggregated result, from a caller that
// staged enumeration itself. The caller applied the limit (see
// MeasureCandidatesStream).
func finishedSource(res *exec.Result) candidateSource {
	return func(int, int, func() error, func(int, exec.Candidate)) (*exec.Result, []bool, error) {
		return res, nil, nil
	}
}

// measureCandidates runs the pipeline over src for a query with the
// given LIMIT. With the race (RaceApplies) the whole field is enumerated
// — every distinct candidate counted, but the ones after the k-th
// certain one never built (exec.Options.TopK), compiled or sampled —
// and the race delivers the k most certain candidates; otherwise every
// candidate of the limited result is measured at the fixed budget —
// saturated ones (constraint ⊤: no sample to draw) on the enumerating
// goroutine the moment they saturate, so a streaming consumer sees them
// mid-join, the rest fanned out once the join is done. yield only ever
// runs on the calling goroutine. The returned NullIDs are the nulls the
// delivered candidates' constraints mention, gathered as they are
// delivered, so no input to measurement depends on them.
func (e *Engine) measureCandidates(ctx context.Context, src candidateSource, limit int, eps, delta float64, yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error) {
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	out := orderedYield{ctx: ctx, fail: fail, yield: yield}
	measure := func(eng *Engine, idx int, c exec.Candidate, deliver func(int, MeasuredCandidate)) {
		r, err := eng.MeasureFormula(c.Phi, eps, delta)
		if err != nil {
			fail(err)
			return
		}
		deliver(idx, MeasuredCandidate{Tuple: c.Tuple, Phi: c.Phi, Measure: r})
	}

	race := e.RaceApplies(limit)
	aggLimit, topK, onSaturated := limit, 0, func(idx int, c exec.Candidate) {
		if ctx.Err() == nil {
			measure(e.seedItem(e.itemEngine(0), idx), idx, c, out.deliver)
		}
	}
	if race {
		aggLimit, topK, onSaturated = 0, limit, nil
	}
	res, saturated, err := src(aggLimit, topK, func() error { return context.Cause(ctx) }, onSaturated)
	if err != nil {
		return nil, err
	}
	cands := res.Candidates
	info := &SQLStreamInfo{Count: len(cands), Derivations: res.Derivations}
	measureRest := func(deliver func(int, MeasuredCandidate)) {
		e.forEachItem(ctx, len(cands), func(eng *Engine, idx int) {
			if saturated == nil || !saturated[idx] {
				measure(eng, idx, cands[idx], deliver)
			}
		})
	}
	switch {
	case race:
		phis := make([]realfmla.Formula, len(cands))
		for i, c := range cands {
			phis[i] = c.Phi
		}
		oc, err := e.race(ctx, phis, limit, eps, delta, func(pos, idx int, r Result) error {
			out.deliver(pos, MeasuredCandidate{Tuple: cands[idx].Tuple, Phi: cands[idx].Phi, Measure: r})
			return context.Cause(ctx)
		})
		if err != nil {
			fail(err)
		}
		info.Count, info.SamplesDrawn, info.Rounds = oc.delivered, oc.samplesDrawn, oc.rounds
	case e.poolWidth(len(cands)) <= 1:
		measureRest(out.deliver)
	default:
		// The workers hand their results to this goroutine, the only one
		// that runs the emitter. Unbuffered, so a slow yield holds the
		// workers back instead of letting them measure ahead of it.
		type measured struct {
			idx int
			c   MeasuredCandidate
		}
		results := make(chan measured)
		go func() {
			defer close(results)
			measureRest(func(idx int, c MeasuredCandidate) {
				select {
				case results <- measured{idx, c}:
				case <-ctx.Done():
				}
			})
		}()
		for m := range results {
			out.deliver(m.idx, m.c)
		}
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	info.NullIDs = out.nullIDs(res.NullIDs)
	return info, nil
}

// seedItem readies pool engine eng for the candidate at idx — the one
// place per-candidate seeding happens (see itemOptions).
func (e *Engine) seedItem(eng *Engine, idx int) *Engine {
	eng.resetItem(itemOptions(e.opts, idx), e.kernels())
	return eng
}

// poolWidth is the number of pool workers a pass over n candidates uses.
func (e *Engine) poolWidth(n int) int { return min(e.opts.poolWorkers(), n) }

// forEachItem is the scheduler: it calls f(eng, idx) for every candidate
// index in [0, n) on a pool engine seeded for that index, fanned out over
// the pool width (fanOut). It stops handing out indices once ctx is done.
// f must touch only per-index state; then scheduling cannot change any
// value.
func (e *Engine) forEachItem(ctx context.Context, n int, f func(eng *Engine, idx int)) {
	width := e.poolWidth(n)
	if width > 1 {
		// Created here, not racily by the workers' first seedItem.
		e.kernels()
		e.itemEngine(width - 1)
	}
	fanOut(ctx, width, n, func(w, idx int) { f(e.seedItem(e.itemEngine(w), idx), idx) })
}

// fanOut is the engine's one goroutine fan-out: it calls f(w, i) for
// every i in [0, n), inline on the calling goroutine (slot w = 0, no
// goroutines or channels) when width ≤ 1, and otherwise on width
// goroutines, slots 0 to width-1, pulling indices in order from a shared
// counter. It stops handing out indices once ctx is done, and it returns
// only after every goroutine it started has exited, so none outlives the
// call.
func fanOut(ctx context.Context, width, n int, f func(w, i int)) {
	if width <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}()
	}
	wg.Wait()
}

// orderedYield is the emitter: it restores candidate order on the
// out-of-order stream of measured candidates (saturated ones finalize
// mid-enumeration, pool workers finish in any order), parking a result
// until every earlier index has been delivered. It belongs to the
// goroutine that called measureCandidates. Once the run has failed it
// delivers nothing more; a failing yield is what fails the run. It
// also collects the variables the delivered constraints mention, for
// nullIDs.
type orderedYield struct {
	ctx     context.Context
	fail    context.CancelCauseFunc
	yield   func(int, MeasuredCandidate) error
	pending map[int]MeasuredCandidate
	next    int
	vars    []int
}

func (oy *orderedYield) deliver(idx int, m MeasuredCandidate) {
	if idx != oy.next {
		if oy.pending == nil {
			oy.pending = make(map[int]MeasuredCandidate)
		}
		oy.pending[idx] = m
		return
	}
	for oy.ctx.Err() == nil {
		if err := oy.yield(oy.next, m); err != nil {
			oy.fail(err)
			return
		}
		oy.vars = realfmla.AppendVars(oy.vars, m.Phi)
		oy.next++
		var ok bool
		if m, ok = oy.pending[oy.next]; !ok {
			return
		}
		delete(oy.pending, oy.next)
	}
}

// nullIDs returns the ascending IDs of the nulls the delivered
// candidates' constraints mention: the nulls the answer depends on
// (Section 9's partial sampling; see realfmla.Reduce). inventory maps a
// formula variable to its null ID, ascending, so the result is too.
func (oy *orderedYield) nullIDs(inventory []int) []int {
	slices.Sort(oy.vars)
	vars := slices.Compact(oy.vars)
	if len(vars) == 0 {
		return nil
	}
	ids := make([]int, len(vars))
	for i, v := range vars {
		ids[i] = inventory[v]
	}
	return ids
}
