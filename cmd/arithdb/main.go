// Command arithdb answers queries over incomplete databases with
// confidence levels, from the command line.
//
// Subcommands:
//
//	arithdb sql -data DIR -query "SELECT ..." [-eps 0.01] [-delta 0.05]
//	    Run a SQL query under conditional semantics and print every
//	    candidate answer tuple with its measure of certainty.
//
//	arithdb measure -data DIR -query "q(...) := ..." [args...]
//	    Compute μ(q, D, args) for an FO(+,·,<) query. Positional
//	    arguments supply values for the query's free variables:
//	    plain text for base constants, numbers for numerical constants,
//	    _B<i>/_N<i> for nulls of the database.
//
//	arithdb info -data DIR
//	    Print the schema and null inventory of a stored database.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	arithdb "repro"
	"repro/internal/client"
	"repro/internal/fo"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("arithdb: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "sql":
		runSQL(os.Args[2:])
	case "measure":
		runMeasure(os.Args[2:])
	case "insert":
		runInsert(os.Args[2:])
	case "info":
		runInfo(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  arithdb sql     -data DIR -query "SELECT ..." [-eps E] [-delta D] [-seed S]
                  [-workers N] [-compile-cache N] [-no-adaptive] [-stats]
  arithdb sql     -connect URL[,URL...] -query "SELECT ..." [-eps E] [-delta D] [-stream] [-stats]
                  (first URL is the primary; reads fail over down the list)
  arithdb measure -data DIR -query "q(x:base) := ..." [-eps E] [-delta D] [-seed S]
                  [-workers N] [-compile-cache N] [args...]
  arithdb insert  (-data DIR | -connect URL) -rel R -tuple "v1,v2,..." [-tuple ...]
  arithdb info    -data DIR`)
	os.Exit(2)
}

func commonFlags(fs *flag.FlagSet) (data, query *string, eps, delta *float64, opts *arithdb.EngineOptions) {
	data = fs.String("data", "", "database directory (written by datagen or SaveDatabase)")
	query = fs.String("query", "", "query text")
	eps = fs.Float64("eps", 0.01, "additive error of the approximation")
	delta = fs.Float64("delta", 0.05, "failure probability")
	opts = &arithdb.EngineOptions{}
	fs.Int64Var(&opts.Seed, "seed", 1, "random seed")
	fs.IntVar(&opts.Workers, "workers", 0,
		"goroutines for intra-formula sampling (0 = GOMAXPROCS; results are seed-deterministic regardless)")
	fs.IntVar(&opts.CompileCacheSize, "compile-cache", 0,
		"compiled-kernel cache entries (0 = default 1024, negative = no cache: every formula is compiled on each use)")
	return
}

// rangeFlags collects repeated -range Relation.column=lo:hi declarations
// (either bound may be empty for ±∞).
type rangeFlags map[string]arithdb.Interval

func (r rangeFlags) String() string { return fmt.Sprintf("%v", map[string]arithdb.Interval(r)) }

func (r rangeFlags) Set(s string) error {
	col, spec, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want Relation.column=lo:hi, got %q", s)
	}
	loS, hiS, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("want lo:hi bounds in %q", s)
	}
	iv := arithdb.Unbounded()
	if loS != "" {
		lo, err := strconv.ParseFloat(loS, 64)
		if err != nil {
			return fmt.Errorf("bad lower bound %q", loS)
		}
		iv.Lo = lo
	}
	if hiS != "" {
		hi, err := strconv.ParseFloat(hiS, 64)
		if err != nil {
			return fmt.Errorf("bad upper bound %q", hiS)
		}
		iv.Hi = hi
	}
	r[col] = iv
	return nil
}

func runSQL(args []string) {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	data, query, eps, delta, opts := commonFlags(fs)
	ranges := rangeFlags{}
	fs.Var(ranges, "range", "column range constraint Relation.column=lo:hi (repeatable; empty bound = ±inf)")
	connect := fs.String("connect", "", "arithdbd base URL(s), comma-separated (e.g. http://primary:8080,http://replica:8081): run the query on a server instead of -data; reads fail over down the list")
	stream := fs.Bool("stream", false, "with -connect: print candidates as the server streams them")
	fs.BoolVar(&opts.NoAdaptive, "no-adaptive", false,
		"disable the adaptive top-k sampling race for LIMIT queries (fixed budget per candidate, first-k distinct tuples)")
	stats := fs.Bool("stats", false, "print sampling telemetry (samples drawn, adaptive race rounds) after the results")
	_ = fs.Parse(args)
	if *query == "" {
		log.Fatal("sql: -query is required")
	}
	if *stream && *connect == "" {
		log.Fatal("sql: -stream requires -connect (local runs print the buffered result)")
	}
	if *connect != "" {
		// The server's own configuration governs seeding, planning and
		// measurement; reject local-only flags instead of silently
		// ignoring them.
		localOnly := map[string]bool{
			"data": true, "range": true, "seed": true, "workers": true,
			"compile-cache": true, "no-adaptive": true,
		}
		fs.Visit(func(f *flag.Flag) {
			if localOnly[f.Name] {
				log.Fatalf("sql: -%s is not supported over -connect (the server's configuration governs it)", f.Name)
			}
		})
		runSQLRemote(*connect, *query, *eps, *delta, *stream, *stats)
		return
	}
	if *data == "" {
		log.Fatal("sql: -data (or -connect) is required")
	}
	d, err := arithdb.LoadDatabase(*data)
	if err != nil {
		log.Fatal(err)
	}
	sess := arithdb.NewSession(d, *opts)
	printMeasure := func(tuple arithdb.Tuple, m arithdb.Result) {
		kind := "approx"
		if m.Exact {
			kind = "exact"
		}
		fmt.Printf("%-24s μ = %.4f  [%s, %s]\n", tuple, m.Value, kind, m.Method)
	}
	if len(ranges) > 0 {
		// Range-constrained measurement (Section 10) stays on the
		// evaluate-then-measure path: background sampling is sequential.
		res, err := sess.SQL(*query)
		if err != nil {
			log.Fatal(err)
		}
		bg := arithdb.BackgroundFromColumnRanges(d, ranges, res.Index)
		fmt.Printf("%d candidate tuples (%d derivations)\n", len(res.Candidates), res.Derivations)
		for _, c := range res.Candidates {
			m, err := sess.Engine().MeasureWithBackground(c.Phi, bg, *eps, *delta)
			if err != nil {
				log.Fatal(err)
			}
			printMeasure(c.Tuple, m)
		}
		return
	}
	// The fused pipeline: streaming candidate enumeration overlapped with
	// concurrent measurement.
	res, err := sess.MeasureSQL(*query, *eps, *delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d candidate tuples (%d derivations)\n", len(res.Candidates), res.Derivations)
	for _, c := range res.Candidates {
		printMeasure(c.Tuple, c.Measure)
	}
	if *stats {
		printSamplingStats(res.SamplesDrawn, res.Rounds)
	}
}

// printSamplingStats renders the -stats summary line: the adaptive
// race's total spend, or a marker that the query ran on the fixed-budget
// path (no LIMIT, -no-adaptive, or the server's configuration).
func printSamplingStats(samples, rounds int) {
	if rounds > 0 {
		unit := "rounds"
		if rounds == 1 {
			unit = "round"
		}
		fmt.Printf("sampling: %d samples drawn in %d adaptive %s\n", samples, rounds, unit)
		return
	}
	fmt.Println("sampling: fixed budget (no adaptive race)")
}

// splitEndpoints parses a comma-separated -connect list; the first entry
// is the primary (writes go only there), later entries are read
// fallbacks.
func splitEndpoints(s string) []string {
	var eps []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			eps = append(eps, e)
		}
	}
	return eps
}

// printReplicationStats renders the server's replication position behind
// -stats: the primary's durable WAL frontier, or the replica's applied
// frontier and observed lag.
func printReplicationStats(ctx context.Context, c *client.Client) {
	info, err := c.Info(ctx)
	if err != nil || info.Replication == nil {
		return
	}
	r := info.Replication
	if r.Role == "replica" {
		fmt.Printf("replication: replica at seq %d (primary seq %d, lag %d) via %s\n",
			r.LastAppliedSeq, r.PrimarySeq, r.ReplicaLag, c.Current())
		return
	}
	fmt.Printf("replication: primary at wal seq %d (checkpoint covers %d) via %s\n",
		r.WalSeq, r.CheckpointSeq, c.Current())
}

// runSQLRemote runs the query on an arithdbd server through the wire
// client. Responses are lossless, so the printed tuples and measures are
// exactly what a local session over the server's database would print.
func runSQLRemote(base, query string, eps, delta float64, stream, stats bool) {
	c := client.NewFailover(splitEndpoints(base)).WithRetry(client.DefaultRetry)
	ctx := context.Background()
	printWire := func(wc wire.MeasuredCandidate) {
		tuple, err := wire.ToTuple(wc.Tuple)
		if err != nil {
			log.Fatal(err)
		}
		kind := "approx"
		if wc.Measure.Exact {
			kind = "exact"
		}
		fmt.Printf("%-24s μ = %.4f  [%s, %s]\n", tuple, wc.Measure.Value, kind, wc.Measure.Method)
	}
	if stream {
		// Top-k candidates render as the server finalizes them; the
		// summary line arrives with the terminal done event.
		done, err := c.MeasureSQLStream(ctx, query, eps, delta, func(ev wire.Event) error {
			printWire(*ev.Candidate)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d candidate tuples (%d derivations)\n", done.Count, done.Derivations)
		if stats {
			printSamplingStats(done.SamplesDrawn, done.Rounds)
			printReplicationStats(ctx, c)
		}
		return
	}
	res, err := c.MeasureSQL(ctx, query, eps, delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d candidate tuples (%d derivations)\n", res.Count, res.Derivations)
	for _, wc := range res.Candidates {
		printWire(wc)
	}
	if stats {
		printSamplingStats(res.SamplesDrawn, res.Rounds)
		printReplicationStats(ctx, c)
	}
}

func runMeasure(args []string) {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	data, query, eps, delta, opts := commonFlags(fs)
	_ = fs.Parse(args)
	if *data == "" || *query == "" {
		log.Fatal("measure: -data and -query are required")
	}
	d, err := arithdb.LoadDatabase(*data)
	if err != nil {
		log.Fatal(err)
	}
	q, err := arithdb.ParseQuery(*query)
	if err != nil {
		log.Fatal(err)
	}
	if err := arithdb.Typecheck(q, d.Schema()); err != nil {
		log.Fatal(err)
	}
	if len(fs.Args()) != len(q.Free) {
		log.Fatalf("query has %d free variables, got %d arguments", len(q.Free), len(fs.Args()))
	}
	// The general translation expands quantifiers over the active domain;
	// guard against inputs where that blows up and point at the join-based
	// pipeline instead.
	if cost := measureCost(q, d); cost > 5e7 {
		log.Fatalf("query too expensive for the general translation on this database "+
			"(~%.0g quantifier expansions); for SELECT-shaped queries use `arithdb sql`, "+
			"which evaluates joins conditionally", cost)
	}
	vals := make([]arithdb.Value, len(fs.Args()))
	for i, a := range fs.Args() {
		vals[i] = parseValue(a)
	}
	engine := arithdb.NewEngine(*opts)
	m, err := engine.Measure(q, d, vals, *eps, *delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("μ = %.6f", m.Value)
	if m.Rat != nil {
		fmt.Printf(" (exactly %s)", m.Rat)
	}
	fmt.Printf("  [method %s, %d numerical nulls, %d relevant]\n", m.Method, m.K, m.RelevantK)
}

// measureCost estimates the active-domain expansion size of the general
// translation: |base domain|^(base quantifiers) · |num domain|^(num
// quantifiers), times the database size for relation-atom expansion.
func measureCost(q *arithdb.Query, d *arithdb.Database) float64 {
	baseQ, numQ := fo.CountQuantifiers(q.Body)
	baseDom := float64(len(d.BaseConstants()) + len(d.BaseNulls()))
	numDom := float64(len(d.NumConstants()) + len(d.NumNulls()))
	if baseDom < 1 {
		baseDom = 1
	}
	if numDom < 1 {
		numDom = 1
	}
	return math.Pow(baseDom, float64(baseQ)) * math.Pow(numDom, float64(numQ)) * float64(d.Size()+1)
}

// parseValue interprets a CLI argument: _B<i>/_N<i> as nulls, numbers as
// numerical constants, everything else as base constants.
func parseValue(s string) arithdb.Value {
	if rest, ok := strings.CutPrefix(s, "_B"); ok {
		if id, err := strconv.Atoi(rest); err == nil {
			return arithdb.NullBase(id)
		}
	}
	if rest, ok := strings.CutPrefix(s, "_N"); ok {
		if id, err := strconv.Atoi(rest); err == nil {
			return arithdb.NullNum(id)
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return arithdb.Num(f)
	}
	return arithdb.Base(s)
}

// tupleFlags collects repeated -tuple "v1,v2,..." declarations; each
// value is parsed like a measure argument (parseValue: _B<i>/_N<i> for
// nulls, numbers as numerical constants, anything else as a base
// constant — base constants containing commas need the Go API).
type tupleFlags []arithdb.Tuple

func (t *tupleFlags) String() string { return fmt.Sprintf("%v", []arithdb.Tuple(*t)) }

func (t *tupleFlags) Set(s string) error {
	parts := strings.Split(s, ",")
	tup := make(arithdb.Tuple, len(parts))
	for i, p := range parts {
		tup[i] = parseValue(strings.TrimSpace(p))
	}
	*t = append(*t, tup)
	return nil
}

// runInsert appends tuples to one relation — locally (load, insert
// through the same incremental-maintenance path the library uses, save
// back) or on a server (POST /v1/insert). Both forms are atomic: an
// invalid tuple anywhere in the batch changes nothing.
func runInsert(args []string) {
	fs := flag.NewFlagSet("insert", flag.ExitOnError)
	data := fs.String("data", "", "database directory (written by datagen or SaveDatabase)")
	connect := fs.String("connect", "", "arithdbd base URL: insert on a server instead of -data")
	rel := fs.String("rel", "", "target relation")
	var tuples tupleFlags
	fs.Var(&tuples, "tuple", `tuple "v1,v2,..." (repeatable)`)
	_ = fs.Parse(args)
	if *rel == "" || len(tuples) == 0 {
		log.Fatal("insert: -rel and at least one -tuple are required")
	}
	if (*data == "") == (*connect == "") {
		log.Fatal("insert: exactly one of -data or -connect is required")
	}
	if *connect != "" {
		// Writes pin to the first endpoint (the primary); extra endpoints in
		// the list only serve read failover.
		res, err := client.NewFailover(splitEndpoints(*connect)).WithRetry(client.DefaultRetry).Insert(context.Background(), *rel, tuples)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("inserted %d tuples into %s (%d total, version %d)\n",
			res.Inserted, *rel, res.Tuples, res.Version)
		return
	}
	d, err := arithdb.LoadDatabase(*data)
	if err != nil {
		log.Fatal(err)
	}
	if err := d.InsertBatch(*rel, tuples); err != nil {
		log.Fatal(err)
	}
	if err := arithdb.SaveDatabase(d, *data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d tuples into %s (%d total)\n", len(tuples), *rel, d.Len(*rel))
}

func runInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	data := fs.String("data", "", "database directory")
	_ = fs.Parse(args)
	if *data == "" {
		log.Fatal("info: -data is required")
	}
	d, err := arithdb.LoadDatabase(*data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d.Schema())
	fmt.Printf("tuples: %d\n", d.Size())
	fmt.Printf("base nulls: %d, numerical nulls: %d\n", len(d.BaseNulls()), len(d.NumNulls()))
}
