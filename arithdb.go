// Package arithdb is a library for answering queries with arithmetic over
// incomplete databases, reproducing Console, Hofer & Libkin, "Queries with
// Arithmetic on Incomplete Databases" (PODS 2020).
//
// Databases are two-sorted — columns hold either uninterpreted base values
// or real numbers — and either kind of column may contain marked nulls.
// Queries come from FO(+,·,<) (first-order logic with arithmetic) or from
// a small SQL dialect. Instead of the classical all-or-nothing certain
// answers, every candidate answer tuple gets a measure of certainty
// μ ∈ [0,1]: the asymptotic fraction of interpretations of the numerical
// nulls under which the tuple is an answer.
//
// Quick start:
//
//	s := arithdb.MustSchema(arithdb.MustRelation("R",
//	    arithdb.Col("x", arithdb.Num), arithdb.Col("y", arithdb.Num)))
//	d := arithdb.NewDatabase(s)
//	d.MustInsert("R", arithdb.NullNum(0), arithdb.NullNum(1))
//
//	q := arithdb.MustParseQuery(`q() := exists x:num, y:num . (R(x, y) and x > y)`)
//	res, _ := arithdb.NewEngine(arithdb.EngineOptions{}).Measure(q, d, nil, 0.01, 0.05)
//	fmt.Println(res.Value) // 0.5, exactly
//
// The engine picks exact algorithms (rational cell enumeration for order
// constraints, closed-form sectors in low dimension) when they apply and
// falls back to the paper's randomized approximation schemes otherwise.
// For SQL workloads, Session.MeasureSQL runs the fused pipeline of the
// paper's experiments — queries are lowered to a logical plan
// (internal/plan), executed by a streaming hash-join executor
// (internal/exec) over the database's persistent equality indexes, and
// candidates are measured concurrently as their constraints finalize.
// EvaluateSQL remains the evaluate-only entry point, producing candidate
// tuples with compact per-tuple constraints that feed MeasureFormula.
package arithdb

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/dbio"
	"repro/internal/fo"
	"repro/internal/realfmla"
	"repro/internal/schema"
	"repro/internal/sqlfront"
	"repro/internal/translate"
	"repro/internal/value"
)

// Value is a database entry: a base or numerical constant, or a marked
// null of either sort.
type Value = value.Value

// Tuple is a row of values.
type Tuple = value.Tuple

// Value constructors.
var (
	// Base returns a base-sort constant.
	Base = value.Base
	// Num returns a numerical constant.
	Num = value.Num
	// NullBase returns the marked base null ⊥i.
	NullBase = value.NullBase
	// NullNum returns the marked numerical null ⊤i.
	NullNum = value.NullNum
)

// ColType is the sort of a column.
type ColType = schema.ColType

// Column sorts.
const (
	// BaseCol marks a base-typed column.
	BaseCol = schema.Base
	// NumCol marks a numerical column.
	NumCol = schema.Num
)

// Column describes one relation column.
type Column = schema.Column

// Col is shorthand for building a Column.
func Col(name string, t ColType) Column { return Column{Name: name, Type: t} }

// Relation is a relation schema.
type Relation = schema.Relation

// Schema is a database schema.
type Schema = schema.Schema

// Schema construction.
var (
	// NewRelation builds a relation schema, validating column names.
	NewRelation = schema.NewRelation
	// MustRelation is NewRelation panicking on error.
	MustRelation = schema.MustRelation
	// NewSchema builds a schema from relations.
	NewSchema = schema.New
	// MustSchema is NewSchema panicking on error.
	MustSchema = schema.MustNew
)

// Database is an incomplete database instance.
type Database = db.Database

// NewDatabase returns an empty database over the schema.
func NewDatabase(s *Schema) *Database { return db.New(s) }

// SaveDatabase writes the database as a directory of CSV files.
func SaveDatabase(d *Database, dir string) error { return dbio.Save(d, dir) }

// LoadDatabase reads a database written by SaveDatabase.
func LoadDatabase(dir string) (*Database, error) { return dbio.Load(dir) }

// Query is a parsed FO(+,·,<) query.
type Query = fo.Query

// FO query parsing and checking.
var (
	// ParseQuery parses the textual query syntax (see fo.ParseQuery).
	ParseQuery = fo.ParseQuery
	// MustParseQuery is ParseQuery panicking on error.
	MustParseQuery = fo.MustParseQuery
	// Typecheck validates a query against a schema.
	Typecheck = fo.Typecheck
)

// Constraint is a quantifier-free formula over the reals: the translated
// form of a query/database/answer triple, and the per-candidate
// constraints of SQL evaluation.
type Constraint = realfmla.Formula

// Translate builds the constraint φ with μ(q, D, args) = ν(φ)
// (Proposition 5.3 / Theorem 5.4).
func Translate(q *Query, d *Database, args []Value) (Constraint, error) {
	res, err := translate.Query(q, d, args)
	if err != nil {
		return nil, err
	}
	return res.Phi, nil
}

// SQLQuery is a parsed SELECT statement.
type SQLQuery = sqlfront.Query

// SQLCandidate is one candidate answer of conditional SQL evaluation: the
// tuple plus the constraint under which it is an answer.
type SQLCandidate = sqlfront.Candidate

// SQLResult is the output of EvaluateSQL.
type SQLResult = sqlfront.Result

// SQL front-end.
var (
	// ParseSQL parses a SELECT ... FROM ... WHERE ... LIMIT statement.
	ParseSQL = sqlfront.Parse
	// MustParseSQL is ParseSQL panicking on error.
	MustParseSQL = sqlfront.MustParse
	// EvaluateSQL runs a SQL query under conditional semantics, returning
	// candidate tuples with their constraints.
	EvaluateSQL = sqlfront.Evaluate
	// EvaluateSQL3VL runs a SQL query under SQL's three-valued logic —
	// the baseline that silently drops answers depending on nulls.
	EvaluateSQL3VL = sqlfront.Evaluate3VL
	// MissingFromSQL lists the candidates SQL's three-valued logic loses
	// relative to conditional evaluation.
	MissingFromSQL = sqlfront.Missing
	// CompileSQLToFO compiles a SELECT statement into the equivalent
	// FO(+,·,<) query (LIMIT excluded).
	CompileSQLToFO = sqlfront.ToFO
)

// Engine computes measures of certainty.
type Engine = core.Engine

// EngineOptions configures an Engine. Performance knobs of note:
// Workers fans the additive-approximation (AFPRAS) sample loop of a
// single constraint out over goroutines (default GOMAXPROCS; results
// are bit-identical for a fixed Seed regardless of the setting; the
// background/distribution samplers stay sequential), and
// CompileCacheSize sizes the engine's one compiled-kernel cache (its
// own, or the shared one UseKernels sets; negative means none), which
// lets ε-sweeps over the same candidate constraints compile each
// formula once instead of once per call. The SQL pipeline has one
// configuration (join reordering, probes of the database's persistent
// equality indexes) and no options.
type EngineOptions = core.Options

// Result is a computed or approximated measure.
type Result = core.Result

// NewEngine returns an engine with the given options.
func NewEngine(opts EngineOptions) *Engine { return core.New(opts) }

// MeasureBatch computes measures for many constraints concurrently with
// deterministic per-item seeding (one engine per item, worker pool sized
// to GOMAXPROCS).
var MeasureBatch = core.MeasureBatch

// Method names reported in Result.Method.
const (
	MethodTrivial      = core.MethodTrivial
	MethodExactCells   = core.MethodExactCells
	MethodExactSector  = core.MethodExactSector
	MethodAFPRAS       = core.MethodAFPRAS
	MethodAFPRASDirect = core.MethodAFPRASDirect
	MethodFPRAS        = core.MethodFPRAS
	MethodAFPRASRace   = core.MethodAFPRASRace
)

// TopKResult reports an adaptive top-k race (Engine.MeasureTopK): the
// indices and measures of the k most certain candidates, plus the total
// sampling spend. LIMIT-k MeasureSQL routes through the same race by
// default; EngineOptions.NoAdaptive restores the fixed-budget semantics.
type TopKResult = core.TopKResult

// Interval is a range constraint on a numerical null (the paper's Section
// 10 extension): Lo ≤ z ≤ Hi with ±Inf for open ends.
type Interval = core.Interval

// Background maps formula variables to range constraints for
// Engine.MeasureWithBackground.
type Background = core.Background

// Interval constructors.
var (
	// Unbounded is (−∞, ∞).
	Unbounded = core.Unbounded
	// AtLeast is [lo, ∞) — e.g. a price known non-negative.
	AtLeast = core.AtLeast
	// AtMost is (−∞, hi].
	AtMost = core.AtMost
	// Between is [lo, hi] — e.g. a discount known to lie in [0,1].
	Between = core.Between
)

// Distribution is an explicit prior on a numerical null for
// Engine.MeasureWithDistributions (Section 10's distribution extension).
type Distribution = core.Distribution

// Built-in distributions.
type (
	// UniformDist is uniform on [Lo, Hi].
	UniformDist = core.UniformDist
	// NormalDist is Gaussian with Mean and Stddev.
	NormalDist = core.NormalDist
	// ExponentialDist is exponential with Rate, shifted to start at Lo.
	ExponentialDist = core.ExponentialDist
)

// BackgroundFromColumnRanges builds a Background for the nulls of a
// database from per-column range declarations keyed "Relation.column"
// (e.g. {"Products.dis": Between(0, 1), "Products.rrp": AtLeast(0)}).
// A null occurring in several constrained columns gets the intersection
// of their ranges. index maps null IDs to formula variable indices (use
// SQLResult.Index or translate's Result.Index).
func BackgroundFromColumnRanges(d *Database, ranges map[string]Interval, index map[int]int) Background {
	bg := make(Background)
	for id, cols := range d.NumNullOccurrences() {
		vi, ok := index[id]
		if !ok {
			continue
		}
		iv := Unbounded()
		constrained := false
		for _, col := range cols {
			r, ok := ranges[col]
			if !ok {
				continue
			}
			constrained = true
			if r.Lo > iv.Lo {
				iv.Lo = r.Lo
			}
			if r.Hi < iv.Hi {
				iv.Hi = r.Hi
			}
		}
		if constrained {
			bg[vi] = iv
		}
	}
	return bg
}

// SalesConfig configures the synthetic sales-database generator used by
// the paper's experiments (Section 9).
type SalesConfig = datagen.Config

// GenerateSales produces the synthetic sales database.
var GenerateSales = datagen.Generate

// SalesSchema returns the experiment schema
// (Products / Orders / Market).
var SalesSchema = datagen.Schema

// The three decision-support queries of the paper's experimental
// evaluation (Figure 1).
const (
	QueryCompetitiveAdvantage    = datagen.CompetitiveAdvantage
	QueryNeverKnowinglyUndersold = datagen.NeverKnowinglyUndersold
	QueryUnfairDiscount          = datagen.UnfairDiscount
)
