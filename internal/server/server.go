// Package server is the multi-user HTTP/JSON front of the arithdb
// pipeline: one shared versioned Database, one engine (the Session unit)
// per request pinned to a copy-on-write snapshot of the database, and a
// wire protocol around MeasureSQL plus a write endpoint.
//
// Endpoints:
//
//	GET  /healthz              liveness (503 while draining)
//	GET  /v1/info              schema and null inventory of the served DB
//	POST /v1/sql/measure       fused measure pipeline; set "stream": true
//	                           for incremental top-k delivery (NDJSON, or
//	                           SSE under Accept: text/event-stream)
//	POST /v1/insert            atomic tuple-batch insert into one relation
//	                           (rejected with 403 when Config.ReadOnly)
//
// Writes are first-class: every measuring request pins db.Snapshot() —
// an immutable copy-on-write view behind one atomic load — for its whole
// lifetime, while inserts land on the writer through incremental index
// and inventory maintenance (internal/db), so mixed insert/query traffic
// never drops an index and never blocks a reader mid-query. Writes are
// serialized by the server and each batch is atomic: validated in full
// before the first append, committed as one version step.
//
// Responses are lossless (see package wire): a client reconstructs the
// exact tuples and measures a direct Session call over the same snapshot
// would return, bit for bit, regardless of how many other clients are
// hammering the server — per-candidate seeding makes measurement
// deterministic, and the shared state (equality indexes, inventories,
// compiled-kernel cache) is concurrency-safe and value-neutral. The
// compiled-kernel cache is keyed by formula identity, not database
// version, so it survives snapshot swaps: candidate constraints an
// insert did not change stay compiled across versions.
//
// Admission control: the measuring endpoints pass through a counting
// semaphore (MaxInflight) with a bounded queue wait (QueueTimeout);
// saturation degrades into structured 429s, shutdown into 503s, and
// per-request engines get a bounded measurement-pool budget
// (Engine.PoolWorkers) so no single query monopolizes the machine.
// Request bodies, SQL length, and the eps/delta sampling floors are
// likewise bounded so malformed or adversarial requests fail fast with
// structured errors.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/realfmla"
	"repro/internal/shard"
	"repro/internal/sqlast"
	"repro/internal/sqlfront"
	"repro/internal/value"
	"repro/internal/wire"
)

// Config configures a Server. DB is required; everything else has
// production-safe defaults.
type Config struct {
	// DB is the shared database: the writer the insert endpoint commits
	// to, and the source of the per-request snapshots every read pins.
	DB *db.Database
	// Source, when set, supplies the database to snapshot instead of DB:
	// replica mode uses it so a mid-run re-bootstrap (the primary
	// checkpointed past the replica's cursor) can swap in the freshly
	// adopted store without restarting the server. Requests still pin one
	// snapshot each; only admission-time reads observe the swap.
	Source func() *db.Database
	// Sharded, when set, serves a hash-sharded store instead of DB/
	// Source: inserts scatter rows across the shards, and every read
	// pins the store's gathered database — a merged copy holding the
	// rows in insert order — so results are bit-identical to an
	// unsharded server holding the same rows (see internal/shard).
	// Mutually exclusive with DB, Source, Durable, Replication and
	// Replica: the in-process sharded store is in-memory, and
	// durability/replication compose per shard at the fleet level (one
	// arithdbd per shard) instead.
	Sharded *shard.Store
	// Replication, when set, enables the primary-side replication
	// endpoints (GET /v1/replication/checkpoint and /log) over the
	// durability layer. *wal.Store implements it.
	Replication Replication
	// Replica, when set, marks this server a read replica: inserts are
	// rejected with code "not-primary" and /v1/info + /healthz surface
	// the catchup position (lastAppliedSeq, replicaLag).
	Replica ReplicaStatus
	// ReplHeartbeat is the idle heartbeat period of the replication log
	// tail (lag visibility + liveness). Default 5s.
	ReplHeartbeat time.Duration
	// ReadOnly disables POST /v1/insert (403 with code "read-only").
	ReadOnly bool
	// Durable, when set, is the durability layer (internal/wal) inserts
	// commit through instead of writing DB directly: the batch is WAL-
	// appended and fsync'd before it is applied to DB (which must be the
	// store's own database, store.DB()). When the layer reports itself
	// degraded — a WAL append or fsync failed — the server turns
	// read-only: inserts get structured 503s with code "degraded" while
	// reads keep flowing off the in-memory snapshots.
	Durable Durability
	// MaxInsertTuples bounds one insert batch. Default 4096.
	MaxInsertTuples int
	// Engine is the per-request engine configuration. A fixed Seed makes
	// every response deterministic. PoolWorkers is the per-request
	// measurement worker budget; 0 divides GOMAXPROCS by MaxInflight.
	Engine core.Options
	// MaxInflight bounds concurrently measuring requests; further
	// requests queue. 0 uses max(2, GOMAXPROCS).
	MaxInflight int
	// QueueTimeout bounds how long an admitted-but-queued request waits
	// for a slot before a 429. 0 uses 2s.
	QueueTimeout time.Duration
	// DefaultEps / DefaultDelta fill requests that omit eps/delta.
	// Defaults: 0.01 / 0.05.
	DefaultEps, DefaultDelta float64
	// MinEps / MinDelta are request floors (sampling cost grows as ε⁻²,
	// so an unbounded request could demand unbounded work).
	// Defaults: 0.005 / 1e-6.
	MinEps, MinDelta float64
	// MaxBodyBytes / MaxSQLLen bound request size. Defaults: 1 MiB / 64 KiB.
	MaxBodyBytes int64
	MaxSQLLen    int
	// MaxRelations bounds the FROM clause: the join space grows
	// exponentially in it, so an unbounded query could demand unbounded
	// work from a short request. Default 16.
	MaxRelations int
	// KernelCacheSize sizes the cross-request compiled-kernel cache.
	// 0 uses the core default (1024).
	KernelCacheSize int
	// StreamWriteTimeout bounds how long one stream event may take to
	// reach the client before the stream is aborted (a stalled reader
	// would otherwise pin its admission slot forever). Default 30s.
	StreamWriteTimeout time.Duration
}

// Durability is what the server needs from a durable write path. It is
// satisfied by *wal.Store; the interface keeps the server free of a wal
// dependency so purely in-memory deployments pay nothing.
type Durability interface {
	// InsertBatch durably commits one atomic batch: validated in full,
	// WAL-appended and fsync'd, then applied in memory.
	InsertBatch(rel string, tuples []value.Tuple) error
	// Degraded reports whether the durability layer has tripped to
	// read-only, and why.
	Degraded() (reason string, degraded bool)
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = max(2, runtime.GOMAXPROCS(0))
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.DefaultEps <= 0 {
		c.DefaultEps = 0.01
	}
	if c.DefaultDelta <= 0 {
		c.DefaultDelta = 0.05
	}
	if c.MinEps <= 0 {
		c.MinEps = 0.005
	}
	if c.MinDelta <= 0 {
		c.MinDelta = 1e-6
	}
	// The floors win over the defaults: an operator raising MinEps above
	// DefaultEps must not end up with a server whose own defaults 400.
	if c.DefaultEps < c.MinEps {
		c.DefaultEps = c.MinEps
	}
	if c.DefaultDelta < c.MinDelta {
		c.DefaultDelta = c.MinDelta
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSQLLen <= 0 {
		c.MaxSQLLen = 1 << 16
	}
	if c.MaxRelations <= 0 {
		c.MaxRelations = 16
	}
	if c.MaxInsertTuples <= 0 {
		c.MaxInsertTuples = 4096
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 30 * time.Second
	}
	if c.ReplHeartbeat <= 0 {
		c.ReplHeartbeat = 5 * time.Second
	}
	if c.Engine.PoolWorkers <= 0 {
		c.Engine.PoolWorkers = max(1, runtime.GOMAXPROCS(0)/c.MaxInflight)
	}
	return c
}

// Server is an http.Handler serving the arithdb wire protocol.
type Server struct {
	cfg     Config
	kernels *core.Kernels
	gate    *gate
	mux     *http.ServeMux

	// writeMu serializes inserts: the database requires one writer at a
	// time (readers are unaffected — they hold snapshots).
	writeMu sync.Mutex

	// Sampling telemetry, aggregated over the server lifetime and
	// reported by GET /v1/info (wire.SamplingStats). runs counts
	// completed measure requests; adaptiveRuns the subset whose query
	// reported adaptive-race spend; samplesDrawn/rounds accumulate it.
	runs         atomic.Int64
	adaptiveRuns atomic.Int64
	samplesDrawn atomic.Int64
	rounds       atomic.Int64

	shutdownOnce sync.Once
	shutdownErr  error
	// stopCh is closed when Shutdown begins, so long-lived replication
	// tails (which outlive any single commit) terminate and let the HTTP
	// server drain.
	stopCh chan struct{}

	// testHookAdmitted, when set, runs while a measure request holds its
	// admission slot, before any work — tests use it to hold the pool
	// saturated deterministically.
	testHookAdmitted func()
}

// New returns a server over the shared database.
func New(cfg Config) (*Server, error) {
	if cfg.Sharded != nil {
		if cfg.DB != nil || cfg.Source != nil {
			return nil, errors.New("server: Config.Sharded is exclusive with DB/Source")
		}
		if cfg.Durable != nil || cfg.Replication != nil || cfg.Replica != nil {
			return nil, errors.New("server: Config.Sharded does not compose with Durable/Replication/Replica; run one durable arithdbd per shard instead")
		}
	} else if cfg.DB == nil && cfg.Source == nil {
		return nil, errors.New("server: Config.DB (or Config.Source) is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		kernels: core.NewKernels(cfg.KernelCacheSize),
		gate:    newGate(cfg.MaxInflight),
		mux:     http.NewServeMux(),
		stopCh:  make(chan struct{}),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("POST /v1/sql/measure", s.handleMeasure)
	s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
	if cfg.Replication != nil {
		s.mux.HandleFunc("GET /v1/replication/checkpoint", s.handleReplCheckpoint)
		s.mux.HandleFunc("GET /v1/replication/log", s.handleReplLog)
	}
	return s, nil
}

// snapshot pins the database view one request runs against; in sharded
// mode that is the store's gathered database. A failed gather is a store
// invariant failure, not a bad request: it is answered with a 500 here
// and ok is false.
func (s *Server) snapshot(w http.ResponseWriter) (d *db.Database, ok bool) {
	if s.cfg.Sharded != nil {
		g, err := s.cfg.Sharded.Gather()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
			return nil, false
		}
		return g, true
	}
	if s.cfg.Source != nil {
		return s.cfg.Source().Snapshot(), true
	}
	return s.cfg.DB.Snapshot(), true
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops admitting new measure requests and inserts (they get
// 503s) and waits until the in-flight ones drain or ctx expires: the
// gate reclaims every measuring slot, and acquiring the write lock
// flushes out any insert that passed its drain check before the gate
// closed. The HTTP listener itself is the caller's to close
// (http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		close(s.stopCh)
		s.shutdownErr = s.gate.shutdown(ctx)
		s.writeMu.Lock()
		//lint:ignore SA2001 acquiring the lock is the synchronization:
		// it waits out the last in-flight insert.
		s.writeMu.Unlock()
	})
	return s.shutdownErr
}

// engine builds the per-request engine: fresh (engines are
// single-goroutine) but sharing the server-wide compiled-kernel cache.
func (s *Server) engine() *core.Engine {
	eng := core.New(s.cfg.Engine)
	eng.UseKernels(s.kernels)
	return eng
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, wire.ErrorResponse{Error: msg, Code: code})
}

// admissionError maps gate errors onto 429/503.
func (s *Server) admissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, wire.CodeBusy, err.Error())
	case errors.Is(err, ErrShuttingDown):
		s.writeError(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, err.Error())
	default: // client context expired while queued
		s.writeError(w, 499, wire.CodeBadRequest, err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.gate.closed.Load() {
		s.writeError(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, "draining")
		return
	}
	h := wire.HealthResponse{Status: "ok"}
	// A degraded server is still alive — reads keep working — so healthz
	// stays 200, but the status flips so operators and load balancers can
	// route writes elsewhere.
	if reason, degraded := s.degraded(); degraded {
		h.Status, h.Reason = "degraded", reason
	}
	// WAL position: lets a balancer (or the failover client) see at a
	// glance how far this node's durable/applied frontier has advanced.
	switch {
	case s.cfg.Replica != nil:
		h.Role = "replica"
		h.LastAppliedSeq = s.cfg.Replica.LastAppliedSeq()
		lag := replicaLag(s.cfg.Replica)
		h.ReplicaLag = &lag
	case s.cfg.Replication != nil:
		h.Role = "primary"
		h.WalSeq = s.cfg.Replication.Seq()
	}
	writeJSON(w, http.StatusOK, h)
}

// degraded reports the durability layer's read-only trip, if any.
func (s *Server) degraded() (string, bool) {
	if s.cfg.Durable == nil {
		return "", false
	}
	return s.cfg.Durable.Degraded()
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	d, ok := s.snapshot(w)
	if !ok {
		return
	}
	info := wire.InfoResponse{
		Tuples:    d.Size(),
		BaseNulls: len(d.BaseNulls()),
		NumNulls:  len(d.NumNulls()),
		ReadOnly:  s.cfg.ReadOnly,
	}
	if reason, degraded := s.degraded(); degraded {
		info.ReadOnly = true
		info.Degraded = reason
	}
	switch {
	case s.cfg.Replica != nil:
		info.ReadOnly = true
		info.Replication = &wire.ReplicationInfo{
			Role:           "replica",
			LastAppliedSeq: s.cfg.Replica.LastAppliedSeq(),
			PrimarySeq:     s.cfg.Replica.PrimarySeq(),
			ReplicaLag:     replicaLag(s.cfg.Replica),
		}
	case s.cfg.Replication != nil:
		info.Replication = &wire.ReplicationInfo{
			Role:          "primary",
			WalSeq:        s.cfg.Replication.Seq(),
			CheckpointSeq: s.cfg.Replication.CheckpointSeq(),
		}
	}
	if s.cfg.Sharded != nil {
		info.Sharding = &wire.ShardingInfo{
			NumShards:  s.cfg.Sharded.NumShards(),
			ShardSizes: s.cfg.Sharded.ShardSizes(),
		}
	}
	if runs := s.runs.Load(); runs > 0 {
		info.Sampling = &wire.SamplingStats{
			Runs:         runs,
			AdaptiveRuns: s.adaptiveRuns.Load(),
			SamplesDrawn: s.samplesDrawn.Load(),
			Rounds:       s.rounds.Load(),
		}
	}
	for _, rel := range d.Schema().Relations() {
		ri := wire.RelationInfo{Name: rel.Name}
		for _, col := range rel.Columns {
			ri.Columns = append(ri.Columns, wire.ColumnInfo{Name: col.Name, Type: col.Type.String()})
		}
		info.Relations = append(info.Relations, ri)
	}
	writeJSON(w, http.StatusOK, info)
}

// decodeBody reads a bounded JSON body, rejecting trailing garbage.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, wire.CodeBadRequest, "bad request body: "+err.Error())
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// sampling validates and defaults an (eps, delta) pair: range checks go
// through the shared core validator — so the server rejects exactly the
// inputs every library entry point rejects, with the same message — then
// the server floors apply on top.
func (s *Server) sampling(w http.ResponseWriter, eps, delta float64) (float64, float64, bool) {
	if eps == 0 {
		eps = s.cfg.DefaultEps
	}
	if delta == 0 {
		delta = s.cfg.DefaultDelta
	}
	switch {
	case core.ValidateEpsDelta(eps, delta) != nil:
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest,
			core.ValidateEpsDelta(eps, delta).Error())
	case eps < s.cfg.MinEps:
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("eps %g below the server floor %g", eps, s.cfg.MinEps))
	case delta < s.cfg.MinDelta:
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("delta %g below the server floor %g", delta, s.cfg.MinDelta))
	default:
		return eps, delta, true
	}
	return 0, 0, false
}

// parseSQL validates and parses the request SQL.
func (s *Server) parseSQL(w http.ResponseWriter, src string) (*sqlast.Query, bool) {
	if src == "" {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "sql is required")
		return nil, false
	}
	if len(src) > s.cfg.MaxSQLLen {
		s.writeError(w, http.StatusRequestEntityTooLarge, wire.CodeBadRequest,
			fmt.Sprintf("sql longer than the server limit of %d bytes", s.cfg.MaxSQLLen))
		return nil, false
	}
	q, err := sqlfront.Parse(src)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return nil, false
	}
	if len(q.From) > s.cfg.MaxRelations {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("FROM lists %d relations, above the server limit of %d", len(q.From), s.cfg.MaxRelations))
		return nil, false
	}
	return q, true
}

// recordRun folds one completed measure request into the server's
// sampling telemetry. rounds > 0 identifies an adaptive-race run: a race
// that resolved purely exactly reports zero rounds and is
// indistinguishable from (and as cheap as) a fixed exact run.
func (s *Server) recordRun(samplesDrawn, rounds int) {
	s.runs.Add(1)
	if rounds > 0 {
		s.adaptiveRuns.Add(1)
		s.samplesDrawn.Add(int64(samplesDrawn))
		s.rounds.Add(int64(rounds))
	}
}

// toWireCandidate converts one measured candidate; phi, when not nil,
// renders its constraint (see phiRenderer).
func toWireCandidate(c core.MeasuredCandidate, phi func(realfmla.Formula) string) wire.MeasuredCandidate {
	out := wire.MeasuredCandidate{
		Tuple:   wire.FromTuple(c.Tuple),
		Measure: wire.FromResult(c.Measure),
	}
	if phi != nil {
		out.Phi = phi(c.Phi)
	}
	return out
}

// phiRenderer is includePhi's constraint renderer over snapshot d, nil
// without includePhi. It writes each variable z_i as z<id>, id the null
// it stands for — the i-th of d's ascending inventory (NumNullIndex) —
// so the text reads against the response's nullIds. The renaming is
// monotone, so every term keeps its variable order.
func phiRenderer(d *db.Database, includePhi bool) func(realfmla.Formula) string {
	if !includePhi {
		return nil
	}
	ids, _ := d.NumNullIndex()
	return func(phi realfmla.Formula) string {
		return fmt.Sprint(realfmla.MapAtoms(phi, func(a realfmla.Atom) realfmla.Formula {
			return realfmla.FAtom{A: realfmla.Atom{P: a.P.MapVars(ids), Rel: a.Rel}}
		}))
	}
}

// acquireSlot is the shared admission sequence of the measuring
// endpoints: claim a gate slot (writing the 429/503 on failure) and run
// the test hook. The caller must defer release when ok.
func (s *Server) acquireSlot(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if err := s.gate.acquire(r.Context(), s.cfg.QueueTimeout); err != nil {
		s.admissionError(w, err)
		return nil, false
	}
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}
	return s.gate.release, true
}

// measureSQL runs the fused pipeline for an admitted request, bound to
// the request context: a client that disconnects mid-measurement frees
// its slot promptly instead of computing results nobody reads. The
// request's engine is pinned to one database snapshot for its whole
// life, so concurrent inserts never shift the data under a running
// query. includePhi adds the constraints' text (see phiRenderer).
func (s *Server) measureSQL(w http.ResponseWriter, r *http.Request, q *sqlast.Query, eps, delta float64, includePhi bool) (wire.MeasureResponse, bool) {
	d, ok := s.snapshot(w)
	if !ok {
		return wire.MeasureResponse{}, false
	}
	res, err := s.engine().MeasureSQLContext(r.Context(), q, d, eps, delta)
	switch {
	case err == nil:
		s.recordRun(res.SamplesDrawn, res.Rounds)
		return toMeasureResponse(res, phiRenderer(d, includePhi)), true
	case r.Context().Err() != nil:
		// Client gone; best-effort status for the log, nobody reads it.
		s.writeError(w, 499, wire.CodeBadRequest, err.Error())
	default:
		// The database and engine are fixed; at this point only the query
		// can be at fault (unknown relation/column, ill-typed predicate).
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
	}
	return wire.MeasureResponse{}, false
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req wire.MeasureRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	q, ok := s.parseSQL(w, req.SQL)
	if !ok {
		return
	}
	eps, delta, ok := s.sampling(w, req.Eps, req.Delta)
	if !ok {
		return
	}
	release, ok := s.acquireSlot(w, r)
	if !ok {
		return
	}
	defer release()

	if req.Stream {
		s.streamMeasure(w, r, q, eps, delta, req.IncludePhi)
		return
	}
	res, ok := s.measureSQL(w, r, q, eps, delta, req.IncludePhi)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func toMeasureResponse(res *core.SQLMeasured, phi func(realfmla.Formula) string) wire.MeasureResponse {
	out := wire.MeasureResponse{
		Count:        len(res.Candidates),
		Derivations:  res.Derivations,
		NullIDs:      res.NullIDs,
		SamplesDrawn: res.SamplesDrawn,
		Rounds:       res.Rounds,
		Candidates:   make([]wire.MeasuredCandidate, 0, len(res.Candidates)),
	}
	for _, c := range res.Candidates {
		out.Candidates = append(out.Candidates, toWireCandidate(c, phi))
	}
	return out
}

// streamMeasure delivers candidates incrementally as the fused pipeline
// finalizes them. Headers are written lazily with the first event, so
// errors that precede any output remain clean HTTP error responses; an
// error after partial output becomes a terminal "error" event.
func (s *Server) streamMeasure(w http.ResponseWriter, r *http.Request, q *sqlast.Query, eps, delta float64, includePhi bool) {
	ew := newEventWriter(w, strings.Contains(r.Header.Get("Accept"), "text/event-stream"),
		s.cfg.StreamWriteTimeout)
	defer ew.close()
	// A failed event write (client gone, or the stall deadline fired)
	// cancels the pipeline so remaining sampling is skipped and the
	// admission slot frees promptly instead of measuring into the void.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	d, ok := s.snapshot(w)
	if !ok {
		return
	}
	phi := phiRenderer(d, includePhi)
	deliver := func(idx int, c core.MeasuredCandidate) error {
		wc := toWireCandidate(c, phi)
		if err := ew.write(wire.Event{Event: wire.EventCandidate, Idx: idx, Candidate: &wc}); err != nil {
			cancel()
			return err
		}
		return nil
	}
	info, err := s.engine().MeasureSQLStream(ctx, q, d, eps, delta, deliver)
	if err != nil {
		if !ew.started {
			status, code := http.StatusBadRequest, wire.CodeBadRequest
			if r.Context().Err() != nil {
				status = 499 // client gone before any output
			}
			s.writeError(w, status, code, err.Error())
			return
		}
		_ = ew.write(wire.Event{Event: wire.EventError, Error: err.Error()})
		return
	}
	s.recordRun(info.SamplesDrawn, info.Rounds)
	_ = ew.write(wire.Event{
		Event:        wire.EventDone,
		Count:        info.Count,
		Derivations:  info.Derivations,
		NullIDs:      info.NullIDs,
		SamplesDrawn: info.SamplesDrawn,
		Rounds:       info.Rounds,
	})
}

// eventWriter frames stream events as NDJSON lines or SSE messages and
// flushes each one so clients see candidates as they finalize. Every
// event renews a write deadline, so a stalled (open but unread)
// connection turns into a write error — which aborts the stream and
// frees its admission slot — instead of pinning the slot forever.
type eventWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration
	sse     bool
	started bool
}

func newEventWriter(w http.ResponseWriter, sse bool, timeout time.Duration) *eventWriter {
	return &eventWriter{w: w, rc: http.NewResponseController(w), timeout: timeout, sse: sse}
}

func (ew *eventWriter) write(ev wire.Event) error {
	if ew.timeout > 0 {
		// Best effort: recorders and exotic writers may not support
		// deadlines; the stream still works, just without stall cutoff.
		_ = ew.rc.SetWriteDeadline(time.Now().Add(ew.timeout))
	}
	if !ew.started {
		if ew.sse {
			ew.w.Header().Set("Content-Type", "text/event-stream")
			ew.w.Header().Set("Cache-Control", "no-store")
		} else {
			ew.w.Header().Set("Content-Type", "application/x-ndjson")
		}
		ew.w.WriteHeader(http.StatusOK)
		ew.started = true
	}
	blob, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if ew.sse {
		if _, err := fmt.Fprintf(ew.w, "event: %s\ndata: %s\n\n", ev.Event, blob); err != nil {
			return err
		}
	} else {
		if _, err := ew.w.Write(append(blob, '\n')); err != nil {
			return err
		}
	}
	_ = ew.rc.Flush()
	return nil
}

// close clears the write deadline so it cannot leak into the next
// response on a keep-alive connection (net/http only resets it itself
// when Server.WriteTimeout is set).
func (ew *eventWriter) close() {
	if ew.started && ew.timeout > 0 {
		_ = ew.rc.SetWriteDeadline(time.Time{})
	}
}

// handleInsert commits one atomic tuple batch into a relation. Writes
// bypass the measuring gate (they are cheap and never sample) but are
// serialized among themselves, and the drain check runs under the write
// lock — which Shutdown acquires after the gate drains — so once
// Shutdown returns no insert is in flight and none can start: the
// database is quiescent.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Replica != nil {
		// Writes pin to the primary: a replica never accepts them, and the
		// structured code tells failover clients not to retry here.
		s.writeError(w, http.StatusForbidden, wire.CodeNotPrimary,
			"server is a read replica of "+s.cfg.Replica.Primary()+"; send writes to the primary")
		return
	}
	if s.cfg.ReadOnly {
		s.writeError(w, http.StatusForbidden, wire.CodeReadOnly, "server is read-only")
		return
	}
	if reason, degraded := s.degraded(); degraded {
		s.writeError(w, http.StatusServiceUnavailable, wire.CodeDegraded,
			"server is degraded (read-only): "+reason)
		return
	}
	var req wire.InsertRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Relation == "" {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "relation is required")
		return
	}
	if len(req.Tuples) == 0 {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "tuples are required")
		return
	}
	if len(req.Tuples) > s.cfg.MaxInsertTuples {
		s.writeError(w, http.StatusRequestEntityTooLarge, wire.CodeBadRequest,
			fmt.Sprintf("batch of %d tuples exceeds the server limit of %d", len(req.Tuples), s.cfg.MaxInsertTuples))
		return
	}
	tuples := make([]value.Tuple, len(req.Tuples))
	for i, wt := range req.Tuples {
		t, err := wire.ToTuple(wt)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest,
				fmt.Sprintf("tuple %d: %v", i, err))
			return
		}
		tuples[i] = t
	}
	s.writeMu.Lock()
	if s.gate.closed.Load() {
		s.writeMu.Unlock()
		s.writeError(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, "shutting down")
		return
	}
	var err error
	var n int
	var version int64
	switch {
	case s.cfg.Sharded != nil:
		// The sharded path scatters the batch across the hash shards as
		// one atomic store commit; the routing log keeps query results
		// bit-identical to a single store.
		err = s.cfg.Sharded.InsertBatch(req.Relation, tuples)
		n = s.cfg.Sharded.Len(req.Relation)
		version = s.cfg.Sharded.Version()
	case s.cfg.Durable != nil:
		// The durable path: WAL append + fsync before the in-memory apply
		// (the store writes into s.cfg.DB). A durability failure trips the
		// store to read-only; the batch was never acknowledged.
		err = s.cfg.Durable.InsertBatch(req.Relation, tuples)
		n = s.cfg.DB.Len(req.Relation)
		version = s.cfg.DB.Version()
	default:
		err = s.cfg.DB.InsertBatch(req.Relation, tuples)
		n = s.cfg.DB.Len(req.Relation)
		version = s.cfg.DB.Version()
	}
	s.writeMu.Unlock()
	if err != nil {
		// Either validation failed (nothing was applied) or the WAL did:
		// degraded turns into a structured 503 so clients can tell "this
		// server can no longer write" from "this batch is malformed".
		if reason, degraded := s.degraded(); degraded {
			s.writeError(w, http.StatusServiceUnavailable, wire.CodeDegraded,
				"server is degraded (read-only): "+reason)
			return
		}
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, wire.InsertResponse{
		Inserted: len(req.Tuples),
		Tuples:   n,
		Version:  version,
	})
}
