package core

import (
	"context"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/realfmla"
	"repro/internal/sqlast"
	"repro/internal/value"
)

// PlanOptions and ExecOptions are the SQL pipeline configuration every
// engine runs: join reordering on, probes of the database's persistent
// equality indexes. They are exported for a caller that stages the
// pipeline itself (plan.Build, exec.Aggregate, MeasureCandidatesStream).
// The one such caller is the benchmark's staged re-build
// (benchmark/layers.go); the product has none, so these, RaceApplies and
// MeasureCandidatesStream go when it stops calling them.
func (e *Engine) PlanOptions() plan.Options {
	return plan.Options{Reorder: true}
}

// ExecOptions is the executor half of PlanOptions.
func (e *Engine) ExecOptions() exec.Options {
	return exec.Options{}
}

// RaceApplies reports whether a query with the given LIMIT routes through
// the adaptive top-k race: a LIMIT-k query on the default sampling
// configuration. Non-LIMIT queries and Options.NoAdaptive (the escape
// hatch restoring the fixed-budget first-k-distinct semantics) are
// measured at the fixed budget. A caller that aggregates candidates
// itself must then aggregate the full field (enumerate with LIMIT 0)
// before calling MeasureCandidatesStream with the limit. The race counts
// every distinct candidate but never builds, compiles or samples the
// ones after the k-th certain one; such a caller may set
// exec.Options.TopK to the limit to skip building them too.
func (e *Engine) RaceApplies(limit int) bool {
	return limit > 0 && !e.opts.NoAdaptive
}

// EvaluateSQL runs a SQL query under conditional semantics through the
// engine's planner/executor configuration, returning candidate tuples
// with their constraints. Results are identical to sqlfront.Evaluate.
func (e *Engine) EvaluateSQL(q *sqlast.Query, d *db.Database) (*exec.Result, error) {
	p, err := plan.Build(q, d, e.PlanOptions())
	if err != nil {
		return nil, err
	}
	return exec.Collect(p, d, e.ExecOptions())
}

// MeasuredCandidate is one candidate answer of MeasureSQL: the tuple, its
// constraint, and the measure of certainty μ = ν(Phi).
type MeasuredCandidate struct {
	Tuple   value.Tuple
	Phi     realfmla.Formula
	Measure Result
}

// SQLMeasured is the output of MeasureSQL: the conditional evaluation's
// candidates in derivation order, each with its confidence level.
type SQLMeasured struct {
	Candidates []MeasuredCandidate
	// NullIDs and Derivations as in SQLStreamInfo.
	NullIDs     []int
	Derivations int
	// SamplesDrawn and Rounds report the adaptive top-k race's total
	// sampling spend and round count (see SQLStreamInfo); zero when the
	// query did not route through the race.
	SamplesDrawn int
	Rounds       int
}

// SQLStreamInfo summarizes a completed MeasureSQLStream run: the shape
// metadata of SQLMeasured without the candidate slice (the candidates
// were delivered through yield).
type SQLStreamInfo struct {
	// Count is the number of candidates delivered (after LIMIT).
	Count int
	// NullIDs are the ascending IDs of the numerical nulls the delivered
	// candidates' constraints mention — the nulls the answer depends on,
	// not the database's whole inventory. A constraint's variable z_i
	// still stands for the i-th null of that inventory
	// (db.Database.NumNullIndex), not for NullIDs[i].
	NullIDs []int
	// Derivations as in exec.Result.
	Derivations int
	// SamplesDrawn and Rounds report the adaptive top-k race's total
	// sampling spend (all candidates, frozen-out losers included) and
	// round count. Zero when the query did not route through the race
	// (no LIMIT, or Options.NoAdaptive).
	SamplesDrawn int
	Rounds       int
}

// MeasureSQL is the fused pipeline of the paper's experiments: the query
// is lowered to a plan, the streaming executor's derivations feed
// per-candidate constraint aggregation, and every candidate's constraint
// is measured (see pipeline.go). With a LIMIT, the query routes through
// the adaptive top-k race by default (see MeasureTopK): every distinct
// candidate is enumerated — the ones after the k-th certain one counted
// but never built, compiled or sampled — candidates race on confidence
// intervals, and the k most certain answers are returned in candidate
// order — typically at a small fraction of the fixed k·m sampling budget
// when the measures are skewed. SamplesDrawn and Rounds on the result
// report the spend.
// Options.NoAdaptive restores the fixed-budget first-k-distinct-tuples
// semantics, where only the first k distinct tuples hold constraint state
// and the full candidate list is never materialized.
//
// Measurement matches MeasureBatch exactly: each candidate is measured by
// a pool engine seeded deterministically from this engine's options and
// the candidate index, so results are bit-identical to a sequential
// MeasureBatch run regardless of scheduling. The pool engines share this
// engine's one compiled-kernel cache (see kernelCache), so repeated
// MeasureSQL calls and ε-sweeps on one engine compile each candidate
// constraint once instead of once per call (unless CompileCacheSize is
// negative); kernels are immutable, so sharing cannot change the
// measured values.
//
// MeasureSQL is the buffering collector (collectSQL) over
// MeasureSQLStream, so the two are bit-identical by construction.
func (e *Engine) MeasureSQL(q *sqlast.Query, d *db.Database, eps, delta float64) (*SQLMeasured, error) {
	return e.MeasureSQLContext(context.Background(), q, d, eps, delta)
}

// MeasureSQLContext is MeasureSQL with cancellation: when ctx is
// cancelled, remaining candidate measurements are skipped and the call
// returns ctx.Err() (see MeasureSQLStream).
func (e *Engine) MeasureSQLContext(ctx context.Context, q *sqlast.Query, d *db.Database, eps, delta float64) (*SQLMeasured, error) {
	return collectSQL(func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error) {
		return e.MeasureSQLStream(ctx, q, d, eps, delta, yield)
	})
}

// collectSQL buffers a candidate stream into the slice form: it is the
// one collector behind every buffered entry point.
func collectSQL(stream func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error)) (*SQLMeasured, error) {
	out := &SQLMeasured{}
	info, err := stream(func(_ int, c MeasuredCandidate) error {
		out.Candidates = append(out.Candidates, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.NullIDs, out.Derivations = info.NullIDs, info.Derivations
	out.SamplesDrawn, out.Rounds = info.SamplesDrawn, info.Rounds
	return out, nil
}

// MeasureSQLStream is the streaming form of MeasureSQL: instead of
// buffering the full result, every measured candidate is handed to yield
// as soon as it is final, in candidate order (the first-derivation order
// of the slice API). A server can therefore deliver answers
// incrementally: candidates whose constraint saturates to true mid-join
// are measured and — once every earlier candidate has also finalized —
// delivered before the join completes, and the race delivers a winner
// the moment it is provably in the top k.
//
// yield is called on the calling goroutine only. Indices are strictly
// consecutive from 0; the sequence of (idx, candidate) pairs is exactly
// MeasureSQL's Candidates slice, bit-identical measures included, for
// every Options.PoolWorkers: seeding is a function of the candidate
// index alone. A slow yield exerts backpressure: the pool workers block
// rather than measuring ahead of it.
//
// The first error stops the run and is what MeasureSQLStream returns —
// an error from yield, or ctx.Err() once ctx is cancelled (a server hands
// the request context here so an abandoned connection frees its
// admission slot instead of computing results nobody reads). After it,
// yield is not called again, enumeration aborts at its next poll (every
// few thousand derivations — see exec.Options.Interrupt), and at most
// pool-width further measurements complete: each worker finishes the
// candidate it holds and skips the rest.
func (e *Engine) MeasureSQLStream(ctx context.Context, q *sqlast.Query, d *db.Database, eps, delta float64, yield func(idx int, c MeasuredCandidate) error) (*SQLStreamInfo, error) {
	if err := ValidateEpsDelta(eps, delta); err != nil {
		return nil, err
	}
	p, err := plan.Build(q, d, e.PlanOptions())
	if err != nil {
		return nil, err
	}
	return e.measureCandidates(ctx, e.fusedSource(p, d), p.Limit, eps, delta, yield)
}

// MeasureCandidatesStream measures an already-aggregated candidate set
// and delivers the results exactly as MeasureSQLStream would have for a
// query with the given LIMIT — the same pipeline with enumeration
// factored out, so a caller that ran plan.Build and exec.Aggregate itself
// gets bit-identical measures (candidates are seeded by their index in
// res.Candidates). The aggregation contract: when RaceApplies(limit), res
// must hold the full candidate field (aggregated without the limit) and
// the race delivers the top-k winners (candidates after the k-th certain
// one are counted but never compiled or sampled, so their entries may be
// the zero Candidates of exec.Options.TopK); otherwise res must already
// have the limit applied (first-k-distinct) and every candidate is
// measured.
func (e *Engine) MeasureCandidatesStream(ctx context.Context, res *exec.Result, limit int, eps, delta float64, yield func(idx int, c MeasuredCandidate) error) (*SQLStreamInfo, error) {
	if err := ValidateEpsDelta(eps, delta); err != nil {
		return nil, err
	}
	return e.measureCandidates(ctx, finishedSource(res), limit, eps, delta, yield)
}
