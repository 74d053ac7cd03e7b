package arithdb

import (
	"context"

	"repro/internal/core"
)

// MeasuredSQLCandidate is one candidate answer of a fused SQL
// measurement: the tuple, its constraint, and its confidence level.
type MeasuredSQLCandidate = core.MeasuredCandidate

// SQLMeasured is the output of Session.MeasureSQL / Engine.MeasureSQL.
// Its NullIDs lists only the nulls the candidates' constraints mention,
// in ascending order; it does not map a constraint's variable z_i to a
// null. That mapping (which the removed Index field used to invert) is
// Database.NumNullIndex: z_i stands for its first result's i-th null.
type SQLMeasured = core.SQLMeasured

// Session ties a database to an engine configuration and runs the fused
// SQL pipeline of the paper's experiments: plan → streaming execution →
// per-candidate constraint aggregation → concurrent measurement. Create
// one Session per goroutine (they are cheap and share the database's
// lazily built indexes); a Session's own methods must not be called
// concurrently, though MeasureSQL fans measurement out internally.
type Session struct {
	d      *Database
	engine *Engine
}

// NewSession returns a session over the database with the given engine
// options.
func NewSession(d *Database, opts EngineOptions) *Session {
	return &Session{d: d, engine: core.New(opts)}
}

// Database returns the session's database.
func (s *Session) Database() *Database { return s.d }

// Insert adds one tuple to the named relation. Inserts are atomic (a
// tuple failing validation leaves the database bit-identical) and
// incremental: cached equality indexes, distinct-key statistics and
// active-domain inventories are updated in place, so interleaving
// inserts with MeasureSQL keeps hardware speed instead of re-indexing
// per query.
func (s *Session) Insert(rel string, vals ...Value) error {
	return s.d.Insert(rel, Tuple(vals))
}

// InsertBatch adds tuples to the named relation as one atomic batch:
// every tuple is validated before the first is appended, and the batch
// commits as a single database version step.
func (s *Session) InsertBatch(rel string, tuples []Tuple) error {
	return s.d.InsertBatch(rel, tuples)
}

// Snapshot returns an immutable view of the session's database for
// concurrent readers: other goroutines (or other Sessions) can keep
// querying the snapshot while this session inserts. See
// Database.Snapshot.
func (s *Session) Snapshot() *Database { return s.d.Snapshot() }

// Engine returns the session's engine, for direct measurement calls
// (e.g. ε-sweeps over previously evaluated candidates, which then share
// the engine's compiled-formula cache).
func (s *Session) Engine() *Engine { return s.engine }

// SQL parses and conditionally evaluates a SELECT statement through the
// planner/executor, returning candidate tuples with their constraints.
func (s *Session) SQL(src string) (*SQLResult, error) {
	q, err := ParseSQL(src)
	if err != nil {
		return nil, err
	}
	return s.engine.EvaluateSQL(q, s.d)
}

// EvaluateSQL conditionally evaluates an already parsed query through
// the planner/executor.
func (s *Session) EvaluateSQL(q *SQLQuery) (*SQLResult, error) {
	return s.engine.EvaluateSQL(q, s.d)
}

// MeasureSQL parses a SELECT statement and runs the fused pipeline:
// streaming candidate enumeration overlapped with concurrent AFPRAS
// measurement of each candidate's constraint at additive error eps and
// failure probability delta. See Engine.MeasureSQL for the determinism
// contract.
func (s *Session) MeasureSQL(src string, eps, delta float64) (*SQLMeasured, error) {
	q, err := ParseSQL(src)
	if err != nil {
		return nil, err
	}
	return s.engine.MeasureSQL(q, s.d, eps, delta)
}

// MeasureSQLQuery is MeasureSQL over an already parsed query.
func (s *Session) MeasureSQLQuery(q *SQLQuery, eps, delta float64) (*SQLMeasured, error) {
	return s.engine.MeasureSQL(q, s.d, eps, delta)
}

// SQLStreamInfo summarizes a completed MeasureSQLStream run. As in
// SQLMeasured, NullIDs lists the mentioned nulls, not z_i's null; use
// Database.NumNullIndex for that mapping.
type SQLStreamInfo = core.SQLStreamInfo

// MeasureSQLStream is the streaming form of MeasureSQL: each measured
// candidate is handed to yield as soon as it is final, in candidate
// order, so callers can render top-k answers while enumeration and
// measurement are still running. The delivered sequence is bit-identical
// to MeasureSQL's Candidates slice; see Engine.MeasureSQLStream for the
// yield contract (called on the calling goroutine, in order) and the
// error and cancellation semantics.
func (s *Session) MeasureSQLStream(ctx context.Context, src string, eps, delta float64, yield func(idx int, c MeasuredSQLCandidate) error) (*SQLStreamInfo, error) {
	q, err := ParseSQL(src)
	if err != nil {
		return nil, err
	}
	return s.engine.MeasureSQLStream(ctx, q, s.d, eps, delta, yield)
}
