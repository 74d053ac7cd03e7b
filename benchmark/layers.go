package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/mc"
	"repro/internal/plan"
	"repro/internal/realfmla"
	"repro/internal/shard"
	"repro/internal/sqlast"
	"repro/internal/sqlfront"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	// kernelCacheEntries is the server's default KernelCacheSize.
	kernelCacheEntries = 1024
	// asymTol is core.Options.Tol's default.
	asymTol = 1e-12
	// Iteration counts of the storage and kernel loops, before layerScale.
	storageOps       = 96
	compiledFormulas = 256
	kernelEvals      = 1 << 18
	directionOps     = 1 << 17
	snapshotOps      = 1 << 14
)

// windowLayerMetrics reports what the end-to-end window saw, layer by
// layer: the client's and server's counts, and the log's and the
// checkpointer's behaviour under the feed.
func windowLayerMetrics(out *outcome, win, feed *windowStats, rec *recovery, logBytes int64, ckptMs []float64, ckptBytes int64) map[string]metric {
	m := map[string]metric{}
	busy, unavailable := win.busy429, win.unavailable503
	if feed != win {
		busy, unavailable = busy+feed.busy429, unavailable+feed.unavailable503
	}
	m["client.requests"] = metric{float64(out.attempted), "count"}
	m["client.failures"] = metric{float64(out.failed), "count"}
	m["client.error_rate"] = metric{float64(out.failed) / float64(out.attempted), "ratio"}
	m["client.conns_opened_per_request"] = metric{float64(win.readerDials) / float64(win.reads), "ratio"}
	m["client.conns_opened_per_insert"] = metric{float64(feed.writerDials) / float64(feed.writes), "ratio"}
	m["client.query_p99_ms"] = metric{percentile(win.queryMs, 99), "ms"}
	m["client.insert_p95_ms"] = metric{percentile(feed.insertMs, 95), "ms"}
	m["client.feed_late_p95_ms"] = metric{percentile(feed.lateMs, 95), "ms"}
	m["server.busy_429"] = metric{float64(busy), "count"}
	m["server.unavailable_503"] = metric{float64(unavailable), "count"}
	m["wal.checkpoints"] = metric{float64(len(feed.checkpoints)), "count"}
	m["wal.checkpoint_ms"] = metric{median(ckptMs), "ms"}
	m["wal.checkpoint_bytes"] = metric{float64(ckptBytes), "bytes"}
	m["wal.stall_ratio"] = metric{feed.stallRatio(), "ratio"}
	m["wal.log_bytes_end"] = metric{float64(logBytes), "bytes"}
	m["wal.recovery_ms"] = metric{median(rec.seconds) * 1000, "ms"}
	return m
}

// layers is the layer pass: sequential, in-process, fixed iteration
// counts, on a freshly set-up instance of the workload. It replays the
// workload's own request sequence through every layer it can reach from
// outside and records one span per call.
type layers struct {
	in    *instance
	tr    *tracer
	scale int
	reqs  []*layerReq
	// kern and kernFixed play the server's shared kernel cache for the
	// default and the NoAdaptive engine; warm is the one reused engine,
	// which keeps its own compile cache in front of kern.
	kern, kernFixed *core.Kernels
	warm            *core.Engine
	// Per-request counts, summed over reqs.
	derivations, candidates, returned, samples, rounds, formulas int
	requestBytes, responseBytes                                  int
	untracedMs                                                   []float64
	// phis are the distinct candidate formulas of the first request.
	phis []realfmla.Formula
	// Counted by storage.
	fsyncsPerBatch, bytesPerUserByte, rowSkew float64
}

// layerPass adds the layer pass's metrics to m and returns the one-line
// account of where a request's time goes.
func layerPass(m map[string]metric, w workload, cfg config) (string, error) {
	in, err := setup(w, cfg)
	if err != nil {
		return "", err
	}
	defer in.close()
	lp := &layers{
		in: in, tr: newTracer(), scale: cfg.layerScale,
		kern: core.NewKernels(kernelCacheEntries), kernFixed: core.NewKernels(kernelCacheEntries),
	}
	lp.warm = engineOver(servedOptions, lp.kern)
	for i := 0; i < lp.ops(w.layerReqs); i++ {
		lp.reqs = append(lp.reqs, &layerReq{sql: in.texts[in.rng.Intn(len(in.texts))]})
	}
	steps := []func() error{lp.prewarm, lp.clientCalls, lp.handlerCalls, lp.engineCalls, lp.formulaKernels, lp.storage, lp.sharded, lp.figureQueries}
	for _, step := range steps {
		if err := step(); err != nil {
			return "", fmt.Errorf("layer pass: %w", err)
		}
	}
	if err := lp.tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return "", err
	}
	lp.metrics(m)
	return lp.breakdown(), in.close()
}

// breakdown is the share of a client round trip each layer's median
// accounts for. The terms come from separate phases, so they need not sum
// to the whole.
func (lp *layers) breakdown() string {
	tr := lp.tr
	whole, handler := tr.ms("client.round_trip"), tr.ms("server.handler")
	parts := []struct {
		name string
		ms   float64
	}{
		{"client+net", whole - handler},
		{"server self", handler - tr.ms("core.measure_sql") - tr.ms("sqlfront.parse") - tr.ms("wire.encode")},
		{"sqlfront.parse", tr.ms("sqlfront.parse")},
		{"plan.build", tr.ms("plan.build")},
		{"exec.aggregate", tr.ms("exec.aggregate")},
		{"core.measure", tr.ms("core.measure")},
		{"wire.encode", tr.ms("wire.encode")},
		{"staged glue", tr.selfMs("staged")},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "where one %s request goes (median round trip %.4g ms):", lp.in.w.name, whole)
	for _, p := range parts {
		fmt.Fprintf(&sb, " %s %.1f%%", p.name, 100*p.ms/whole)
	}
	return sb.String()
}

// engineOver is a fresh engine over a shared kernel cache: what the server
// builds for every request.
func engineOver(opts core.Options, kern *core.Kernels) *core.Engine {
	eng := core.New(opts)
	eng.UseKernels(kern)
	return eng
}

func fixedOptions() core.Options {
	o := servedOptions
	o.NoAdaptive = true
	return o
}

func (lp *layers) ops(n int) int { return max(1, n/lp.scale) }

// prewarm fills the kernel caches with every distinct text of the
// sequence, untimed, so that the timed calls see the steady state the
// window sees.
func (lp *layers) prewarm() error {
	seen := map[string]bool{}
	snap := lp.in.store.DB().Snapshot()
	for _, r := range lp.reqs {
		if seen[r.sql] {
			continue
		}
		seen[r.sql] = true
		q, err := sqlfront.Parse(r.sql)
		if err != nil {
			return err
		}
		for _, eng := range []*core.Engine{lp.warm, engineOver(fixedOptions(), lp.kernFixed)} {
			if _, err := eng.MeasureSQL(q, snap, lp.in.w.eps, delta); err != nil {
				return err
			}
		}
	}
	return nil
}

// serve calls the server's handler with an in-memory recorder.
func (lp *layers) serve(path string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	lp.in.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body)
	}
	return rec, nil
}

func (lp *layers) roundTrip(ctx context.Context, sql string) error {
	got, err := lp.in.reader.MeasureSQL(ctx, sql, lp.in.w.eps, delta)
	if err != nil {
		return err
	}
	return lp.in.oracle.check(sql, got, lp.in.nextBatch == 0)
}

// layerReq is one request of the replayed sequence with what the phases
// hand one another.
type layerReq struct {
	sql  string
	body []byte // the MeasureRequest on the wire
	resp []byte // the handler's response
	q    *sqlast.Query
	// p is the plan as the engine runs it: without its LIMIT when the
	// query races, because the race ranks the whole field.
	p plan.Plan
}

// each runs one phase: fn once per request of the sequence, inside a span
// of that name. The phases run one after another, each from a collected
// heap, so that one layer's garbage is not collected on another's time.
func (lp *layers) each(name string, fn func(r *layerReq, s *traceSpan) error) error {
	runtime.GC()
	for i, r := range lp.reqs {
		s := lp.tr.begin(name, nil, i)
		err := fn(r, s)
		lp.tr.end(s)
		if err != nil {
			return fmt.Errorf("%s, request %d: %w", name, i, err)
		}
	}
	return nil
}

// stager runs the stages of one request in order as children of one span
// and keeps the first error; the stages after it are skipped.
type stager struct {
	tr     *tracer
	parent *traceSpan
	err    error
}

func (s *stager) do(name string, fn func() error) {
	if s.err == nil {
		s.err = s.tr.do(name, s.parent, s.parent.Request, 1, fn)
	}
}

// clientCalls drives the sequence through internal/client: each request
// once with a span around the call and once without, in alternating
// order, then once more on the streaming endpoint.
func (lp *layers) clientCalls() error {
	ctx := context.Background()
	runtime.GC()
	for i, r := range lp.reqs {
		traced := func() error {
			return lp.tr.do("client.round_trip", nil, i, 1, func() error { return lp.roundTrip(ctx, r.sql) })
		}
		untraced := func() error {
			t0 := time.Now()
			err := lp.roundTrip(ctx, r.sql)
			lp.untracedMs = append(lp.untracedMs, millis(time.Since(t0)))
			return err
		}
		first, second := traced, untraced
		if i%2 == 1 {
			first, second = untraced, traced
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}
	// client.first_row: the streaming endpoint up to its first candidate
	// event (or the done event of an empty answer).
	return lp.each("client.first_row", func(r *layerReq, s *traceSpan) error {
		open := true
		_, err := lp.in.reader.MeasureSQLStream(ctx, r.sql, lp.in.w.eps, delta, func(wire.Event) error {
			if open {
				lp.tr.end(s)
				open = false
			}
			return nil
		})
		return err
	})
}

// handlerCalls is Server.ServeHTTP with an in-memory recorder, and then
// the handler's work again, stage by stage, from exported functions. The
// two must produce the same bytes.
func (lp *layers) handlerCalls() error {
	in, w := lp.in, lp.in.w
	ctx := context.Background()
	for _, r := range lp.reqs {
		var err error
		if r.body, err = json.Marshal(wire.MeasureRequest{SQL: r.sql, Eps: w.eps, Delta: delta}); err != nil {
			return err
		}
	}
	err := lp.each("server.handler", func(r *layerReq, _ *traceSpan) error {
		rec, err := lp.serve("/v1/sql/measure", r.body)
		if err == nil {
			r.resp = rec.Body.Bytes()
		}
		return err
	})
	if err != nil {
		return err
	}
	lp.requestBytes, lp.responseBytes = len(lp.reqs[0].body), len(lp.reqs[0].resp)

	return lp.each("staged", func(r *layerReq, s *traceSpan) error {
		var (
			snap  *db.Database
			agg   *exec.Result
			info  *core.SQLStreamInfo
			cands []core.MeasuredCandidate
			resp  []byte
		)
		eng := engineOver(servedOptions, lp.kern)
		st := &stager{tr: lp.tr, parent: s}
		st.do("sqlfront.parse", func() (err error) { r.q, err = sqlfront.Parse(r.sql); return err })
		st.do("db.snapshot", func() error { snap = in.store.DB().Snapshot(); return nil })
		st.do("plan.build", func() error {
			built, err := plan.Build(r.q, snap, eng.PlanOptions())
			if err != nil {
				return err
			}
			r.p = *built
			if eng.RaceApplies(r.p.Limit) {
				r.p.Limit = 0
			}
			return nil
		})
		st.do("exec.aggregate", func() (err error) {
			agg, _, err = exec.Aggregate(&r.p, snap, eng.ExecOptions(), nil)
			return err
		})
		st.do("core.measure", func() (err error) {
			info, err = eng.MeasureCandidatesStream(ctx, agg, r.q.Limit, w.eps, delta, func(_ int, c core.MeasuredCandidate) error {
				cands = append(cands, c)
				return nil
			})
			return err
		})
		st.do("wire.encode", func() (err error) {
			resp, err = json.Marshal(measureResponse(cands, info))
			return err
		})
		if st.err != nil {
			return st.err
		}
		if !bytes.Equal(resp, bytes.TrimSpace(r.resp)) {
			return errors.New("the staged pipeline's response differs from the handler's")
		}
		distinct := distinctFormulas(agg)
		lp.count(agg, info, cands, len(distinct))
		if lp.phis == nil {
			lp.phis = distinct[:min(len(distinct), compiledFormulas)]
		}
		return nil
	})
}

// engineCalls times internal/exec, internal/core and internal/wire on
// the sequence, one phase per call.
func (lp *layers) engineCalls() error {
	snap := lp.in.store.DB().Snapshot()
	shared := func() *core.Engine { return engineOver(servedOptions, lp.kern) }
	phases := []struct {
		name string
		fn   func(r *layerReq) error
	}{
		{"exec.enumerate", func(r *layerReq) error {
			cur := exec.NewCursor(&r.p, snap, shared().ExecOptions())
			for {
				if dv, err := cur.Next(); dv == nil || err != nil {
					return err
				}
			}
		}},
		// A fresh engine over the shared kernel cache, as the server does.
		{"core.measure_sql", func(r *layerReq) error { return lp.measureSQL(shared(), r.q, snap) }},
		{"core.measure_sql_warm", func(r *layerReq) error { return lp.measureSQL(lp.warm, r.q, snap) }},
		{"core.measure_sql_cold", func(r *layerReq) error {
			return lp.measureSQL(engineOver(servedOptions, core.NewKernels(kernelCacheEntries)), r.q, snap)
		}},
		{"core.measure_sql_fixed", func(r *layerReq) error {
			return lp.measureSQL(engineOver(fixedOptions(), lp.kernFixed), r.q, snap)
		}},
		{"wire.decode", func(r *layerReq) error { return json.Unmarshal(r.resp, new(wire.MeasureResponse)) }},
	}
	for _, ph := range phases {
		if err := lp.each(ph.name, func(r *layerReq, _ *traceSpan) error { return ph.fn(r) }); err != nil {
			return err
		}
	}
	// One committed batch, then the request: the price of the first read
	// after a write, against server.handler's steady state.
	runtime.GC()
	for i, r := range lp.reqs {
		if err := lp.in.store.InsertBatch("Market", lp.nextBatch()); err != nil {
			return err
		}
		err := lp.tr.do("server.handler_after_insert", nil, i, 1, func() error {
			_, err := lp.serve("/v1/sql/measure", r.body)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (lp *layers) measureSQL(eng *core.Engine, q *sqlast.Query, d *db.Database) error {
	_, err := eng.MeasureSQL(q, d, lp.in.w.eps, delta)
	return err
}

// measureResponse is internal/server's toMeasureResponse: the reference
// MeasureResponse wire.encode_us and wire.decode_us are taken on.
func measureResponse(cands []core.MeasuredCandidate, info *core.SQLStreamInfo) wire.MeasureResponse {
	out := wire.MeasureResponse{
		Count: len(cands), Derivations: info.Derivations, NullIDs: info.NullIDs,
		SamplesDrawn: info.SamplesDrawn, Rounds: info.Rounds,
		Candidates: make([]wire.MeasuredCandidate, 0, len(cands)),
	}
	for _, c := range cands {
		out.Candidates = append(out.Candidates, wire.MeasuredCandidate{Tuple: wire.FromTuple(c.Tuple), Measure: wire.FromResult(c.Measure)})
	}
	return out
}

func distinctFormulas(agg *exec.Result) []realfmla.Formula {
	seen := map[realfmla.FormulaID]bool{}
	var out []realfmla.Formula
	for _, c := range agg.Candidates {
		if id := realfmla.Fingerprint(c.Phi); !seen[id] {
			seen[id] = true
			out = append(out, c.Phi)
		}
	}
	return out
}

func (lp *layers) count(agg *exec.Result, info *core.SQLStreamInfo, cands []core.MeasuredCandidate, formulas int) {
	lp.derivations += agg.Derivations
	lp.candidates += len(agg.Candidates)
	lp.returned += len(cands)
	lp.formulas += formulas
	lp.rounds += info.Rounds
	lp.samples += info.SamplesDrawn
	if info.Rounds == 0 {
		// The fixed-budget path reports its samples per candidate only.
		for _, c := range cands {
			lp.samples += c.Measure.Samples
		}
	}
}

// formulaKernels times realfmla and mc on the first request's candidate
// formulas: reduce + compile per formula, one asymptotic evaluation per
// pre-drawn direction, and one direction draw at the formulas' dimension.
func (lp *layers) formulaKernels() error {
	type kernel struct {
		c   *realfmla.Compiled
		dim int
	}
	var sampled []kernel
	err := lp.tr.do("realfmla.compile", nil, 0, max(1, len(lp.phis)), func() error {
		for _, phi := range lp.phis {
			red, _ := realfmla.Reduce(phi)
			c := realfmla.Compile(red)
			if n := realfmla.NumVars(red); n > 0 && len(sampled) < 32 {
				sampled = append(sampled, kernel{c, n})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rng := mc.NewRNG(lp.in.cfg.seed)
	dim := 2
	if len(sampled) > 0 {
		dim = sampled[0].dim
		const dirs = 64
		reps := lp.ops(kernelEvals) / (len(sampled) * dirs)
		sink := 0
		for _, k := range sampled {
			pre := make([][]float64, dirs)
			for i := range pre {
				pre[i] = mc.SampleSphere(rng, k.dim)
			}
			ev := k.c.NewEvaluator()
			_ = lp.tr.do("realfmla.asym_eval", nil, 0, max(1, reps)*dirs, func() error {
				for r := 0; r < max(1, reps); r++ {
					for _, d := range pre {
						if ev.AsymEval(d, asymTol) {
							sink++
						}
					}
				}
				return nil
			})
		}
		_ = sink
	}
	buf := make([]float64, dim)
	n := lp.ops(directionOps)
	return lp.tr.do("mc.direction", nil, 0, n, func() error {
		for i := 0; i < n; i++ {
			mc.SampleSphereInto(rng, buf)
		}
		return nil
	})
}

// nextBatch is the next batch of the feed's sequence.
func (lp *layers) nextBatch() []value.Tuple {
	lp.in.nextBatch++
	return lp.in.feedBatch(lp.in.nextBatch - 1)
}

// storage times db and wal from outside: snapshots, a cold index build,
// in-memory and durable batch commits (with and without the fsync, the
// difference being the device wait), and the insert handler.
func (lp *layers) storage() error {
	in, tr := lp.in, lp.tr
	live := in.store.DB()
	n := lp.ops(snapshotOps)
	_ = tr.do("db.snapshot_loop", nil, 0, n, func() error {
		for i := 0; i < n; i++ {
			_ = live.Snapshot()
		}
		return nil
	})
	clone := live.Clone()
	_ = tr.do("db.index_build", nil, 0, 1, func() error {
		clone.BuildIndex("Products", 1)
		clone.BuildIndex("Market", 0)
		return nil
	})
	batches := lp.ops(storageOps)
	next := lp.nextBatch
	for i := 0; i < batches; i++ {
		rows := next()
		if err := tr.do("db.insert_batch", nil, 0, 1, func() error { return clone.InsertBatch("Market", rows) }); err != nil {
			return err
		}
	}

	bytes0, syncs0 := in.fs.counters()
	userBytes := 0
	for i := 0; i < batches; i++ {
		rows := next()
		blob, err := insertBody(rows)
		if err != nil {
			return err
		}
		userBytes += len(blob)
		if err := tr.do("wal.commit", nil, 0, 1, func() error { return in.store.InsertBatch("Market", rows) }); err != nil {
			return err
		}
	}
	bytes1, syncs1 := in.fs.counters()
	lp.fsyncsPerBatch = float64(syncs1-syncs0) / float64(batches)
	lp.bytesPerUserByte = float64(bytes1-bytes0) / float64(userBytes)

	dir := in.dir + "-nosync"
	defer os.RemoveAll(dir)
	seed := live.Clone()
	nosync, err := wal.Open(dir, wal.Options{NoSync: true, Seed: func() (*db.Database, error) { return seed, nil }})
	if err != nil {
		return err
	}
	defer nosync.Close()
	for i := 0; i < batches; i++ {
		rows := next()
		if err := tr.do("wal.nosync_commit", nil, 0, 1, func() error { return nosync.InsertBatch("Market", rows) }); err != nil {
			return err
		}
	}
	for i := 0; i < batches; i++ {
		body, err := insertBody(next())
		if err != nil {
			return err
		}
		if err := tr.do("server.insert_handler", nil, 0, 1, func() error { _, err := lp.serve("/v1/insert", body); return err }); err != nil {
			return err
		}
	}
	return nil
}

// insertBody is the JSON an insert of these rows puts on the wire: the
// user bytes of wal.bytes_per_user_byte.
func insertBody(rows []value.Tuple) ([]byte, error) {
	req := wire.InsertRequest{Relation: "Market", Tuples: make([][]wire.Value, len(rows))}
	for i, t := range rows {
		req.Tuples[i] = wire.FromTuple(t)
	}
	return json.Marshal(req)
}

// sharded prices the 4-shard coordinator on the sequence.
func (lp *layers) sharded() error {
	in, tr := lp.in, lp.tr
	snap := in.store.DB().Snapshot()
	var st *shard.Store
	if err := tr.do("shard.build", nil, 0, 1, func() (err error) { st, err = shard.FromDatabase(snap, 4); return err }); err != nil {
		return err
	}
	sizes := st.ShardSizes()
	sort.Ints(sizes)
	lp.rowSkew = float64(sizes[len(sizes)-1]) * float64(len(sizes)) / float64(st.Size())
	if err := tr.do("shard.gather", nil, 0, 1, func() error { _, err := st.Gather(); return err }); err != nil {
		return err
	}
	return lp.each("shard.measure_sql", func(r *layerReq, _ *traceSpan) error {
		_, err := st.MeasureSQL(context.Background(), engineOver(servedOptions, lp.kern), r.q, in.w.eps, delta)
		return err
	})
}

// figureQueries prices the other two Figure 1 queries once each on the
// workload's database: at 1–2.5 s a request they are too slow to gate.
func (lp *layers) figureQueries() error {
	snap := lp.in.store.DB().Snapshot()
	for _, fq := range [][2]string{{"core.nku", datagen.NeverKnowinglyUndersold}, {"core.ud", datagen.UnfairDiscount}} {
		q, err := sqlfront.Parse(fq[1])
		if err != nil {
			return err
		}
		eng := engineOver(servedOptions, core.NewKernels(kernelCacheEntries))
		if err := lp.tr.do(fq[0], nil, 0, 1, func() error { return lp.measureSQL(eng, q, snap) }); err != nil {
			return err
		}
	}
	return nil
}

// metrics turns the spans and counts into the per-layer metrics. Every
// duration is the median over the spans of its name.
func (lp *layers) metrics(m map[string]metric) {
	tr, n := lp.tr, float64(len(lp.reqs))
	ms := func(name, span string) { m[name] = metric{tr.ms(span), "ms"} }
	us := func(name, span string) { m[name] = metric{tr.ms(span) * 1e3, "us"} }
	ns := func(name, span string) { m[name] = metric{tr.ms(span) * 1e6, "ns"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	ratio := func(name string, v float64) { m[name] = metric{v, "ratio"} }

	handler, measureSQL := tr.ms("server.handler"), tr.ms("core.measure_sql")
	parse, encode := tr.ms("sqlfront.parse"), tr.ms("wire.encode")
	m["client.net_ms"] = metric{tr.ms("client.round_trip") - handler, "ms"}
	ms("client.first_row_ms", "client.first_row")
	ms("server.handler_ms", "server.handler")
	m["server.self_ms"] = metric{handler - measureSQL - parse - encode, "ms"}
	ms("server.insert_handler_ms", "server.insert_handler")
	us("wire.encode_us", "wire.encode")
	us("wire.decode_us", "wire.decode")
	m["wire.response_bytes"] = metric{float64(lp.responseBytes), "bytes"}
	m["wire.request_bytes"] = metric{float64(lp.requestBytes), "bytes"}
	us("sqlfront.parse_us", "sqlfront.parse")
	us("plan.build_us", "plan.build")
	ms("exec.enumerate_ms", "exec.enumerate")
	ms("exec.aggregate_ms", "exec.aggregate")
	count("exec.derivations", float64(lp.derivations)/n)
	count("exec.candidates", float64(lp.candidates)/n)
	ratio("exec.derivs_per_result", float64(lp.derivations)/float64(max(1, lp.returned)))
	us("realfmla.compile_us", "realfmla.compile")
	count("realfmla.formulas", float64(lp.formulas)/n)
	ns("realfmla.asym_eval_ns", "realfmla.asym_eval")
	ns("mc.direction_ns", "mc.direction")
	ms("core.measure_sql_ms", "core.measure_sql")
	ms("core.measure_sql_warm_ms", "core.measure_sql_warm")
	ms("core.measure_ms", "core.measure")
	count("core.samples_per_query", float64(lp.samples)/n)
	count("core.rounds", float64(lp.rounds)/n)
	m["core.ns_per_sample"] = metric{tr.ms("core.measure") * 1e6 * n / float64(max(1, lp.samples)), "ns"}
	ratio("core.kernel_working_set_ratio", float64(lp.formulas)/n/kernelCacheEntries)
	ratio("core.kernel_cache_gain", tr.ms("core.measure_sql_cold")/measureSQL)
	ratio("core.race_vs_fixed_ratio", measureSQL/tr.ms("core.measure_sql_fixed"))
	m["core.fused_overlap_ms"] = metric{tr.ms("plan.build") + tr.ms("exec.aggregate") + tr.ms("core.measure") - tr.ms("core.measure_sql_warm"), "ms"}
	ms("core.nku_ms", "core.nku")
	ms("core.ud_ms", "core.ud")
	us("db.snapshot_us", "db.snapshot_loop")
	ms("db.index_build_ms", "db.index_build")
	us("db.insert_batch_us", "db.insert_batch")
	m["db.post_insert_read_ms"] = metric{tr.ms("server.handler_after_insert") - handler, "ms"}
	us("wal.commit_us", "wal.commit")
	us("wal.nosync_commit_us", "wal.nosync_commit")
	ratio("wal.fsyncs_per_batch", lp.fsyncsPerBatch)
	ratio("wal.bytes_per_user_byte", lp.bytesPerUserByte)
	ms("shard.measure_sql_ms", "shard.measure_sql")
	ratio("shard.vs_single_ratio", tr.ms("shard.measure_sql")/measureSQL)
	ms("shard.gather_ms", "shard.gather")
	ratio("shard.row_skew", lp.rowSkew)
	ratio("trace.overhead_ratio", tr.ms("client.round_trip")/median(lp.untracedMs))
}
