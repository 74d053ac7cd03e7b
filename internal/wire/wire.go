// Package wire defines the HTTP/JSON wire protocol spoken between the
// arithdb server (internal/server, cmd/arithdbd) and its clients
// (internal/client, arithdb -connect).
//
// The protocol is designed so a round trip is lossless: a client that
// decodes a response reconstructs the exact value.Tuple and core.Result
// a direct Session call would have produced, bit for bit. Numerical
// constants therefore travel as shortest-round-trip decimal strings
// (which also carry NaN, ±Inf and -0, none of which survive a bare JSON
// number), and exact rational measures carry their numerator/denominator
// text alongside the float.
package wire

import (
	"fmt"
	"math/big"
	"strconv"

	"repro/internal/core"
	"repro/internal/value"
)

// Value kinds on the wire.
const (
	KindBase     = "base"      // base-sort constant (Str)
	KindNum      = "num"       // numerical constant (Num)
	KindBaseNull = "base-null" // marked base null ⊥id (ID)
	KindNumNull  = "num-null"  // marked numerical null ⊤id (ID)
)

// Value is one database value on the wire.
type Value struct {
	Kind string `json:"kind"`
	// Str is the payload of a base constant.
	Str string `json:"str,omitempty"`
	// Num is the payload of a numerical constant, formatted with
	// strconv.FormatFloat(v, 'g', -1, 64): decodes to the identical bits,
	// including -0, and renders NaN and ±Inf where JSON numbers cannot.
	Num string `json:"num,omitempty"`
	// ID is the identifier of a marked null.
	ID int `json:"id,omitempty"`
}

// FromValue encodes a database value.
func FromValue(v value.Value) Value {
	switch v.Kind() {
	case value.BaseConst:
		return Value{Kind: KindBase, Str: v.Str()}
	case value.NumConst:
		return Value{Kind: KindNum, Num: strconv.FormatFloat(v.Float(), 'g', -1, 64)}
	case value.BaseNull:
		return Value{Kind: KindBaseNull, ID: v.NullID()}
	default:
		return Value{Kind: KindNumNull, ID: v.NullID()}
	}
}

// Value decodes the wire value.
func (w Value) Value() (value.Value, error) {
	switch w.Kind {
	case KindBase:
		return value.Base(w.Str), nil
	case KindNum:
		f, err := strconv.ParseFloat(w.Num, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("wire: bad numerical constant %q", w.Num)
		}
		return value.Num(f), nil
	case KindBaseNull:
		return value.NullBase(w.ID), nil
	case KindNumNull:
		return value.NullNum(w.ID), nil
	}
	return value.Value{}, fmt.Errorf("wire: unknown value kind %q", w.Kind)
}

// FromTuple encodes a tuple.
func FromTuple(t value.Tuple) []Value {
	out := make([]Value, len(t))
	for i, v := range t {
		out[i] = FromValue(v)
	}
	return out
}

// ToTuple decodes a tuple.
func ToTuple(ws []Value) (value.Tuple, error) {
	out := make(value.Tuple, len(ws))
	for i, w := range ws {
		v, err := w.Value()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Measure is a core.Result on the wire.
type Measure struct {
	// Value round-trips exactly: encoding/json emits the shortest decimal
	// that parses back to the identical float64 (μ is always finite).
	Value float64 `json:"value"`
	// Rat is the exact rational value as "p/q" when the method is exact
	// over the rationals.
	Rat       string `json:"rat,omitempty"`
	Exact     bool   `json:"exact"`
	Method    string `json:"method"`
	Samples   int    `json:"samples"`
	K         int    `json:"k"`
	RelevantK int    `json:"relevantK"`
	// SamplesDrawn and Rounds carry the adaptive race's per-candidate
	// spend (core.Result); zero — and omitted — on non-adaptive paths.
	SamplesDrawn int `json:"samplesDrawn,omitempty"`
	Rounds       int `json:"rounds,omitempty"`
}

// FromResult encodes a measure.
func FromResult(r core.Result) Measure {
	m := Measure{
		Value:        r.Value,
		Exact:        r.Exact,
		Method:       string(r.Method),
		Samples:      r.Samples,
		K:            r.K,
		RelevantK:    r.RelevantK,
		SamplesDrawn: r.SamplesDrawn,
		Rounds:       r.Rounds,
	}
	if r.Rat != nil {
		m.Rat = r.Rat.RatString()
	}
	return m
}

// Result decodes the measure.
func (m Measure) Result() (core.Result, error) {
	r := core.Result{
		Value:        m.Value,
		Exact:        m.Exact,
		Method:       core.Method(m.Method),
		Samples:      m.Samples,
		K:            m.K,
		RelevantK:    m.RelevantK,
		SamplesDrawn: m.SamplesDrawn,
		Rounds:       m.Rounds,
	}
	if m.Rat != "" {
		rat, ok := new(big.Rat).SetString(m.Rat)
		if !ok {
			return core.Result{}, fmt.Errorf("wire: bad rational %q", m.Rat)
		}
		r.Rat = rat
	}
	return r, nil
}

// InsertRequest is the body of POST /v1/insert: a batch of tuples for one
// relation. The batch is atomic — the server validates every tuple before
// appending the first one, so either the whole batch commits (as one
// database version step) or nothing changes.
type InsertRequest struct {
	Relation string    `json:"relation"`
	Tuples   [][]Value `json:"tuples"`
}

// InsertResponse reports a committed insert batch.
type InsertResponse struct {
	// Inserted is the number of tuples committed by this request.
	Inserted int `json:"inserted"`
	// Tuples is the relation's row count after the commit.
	Tuples int `json:"tuples"`
	// Version is the database version after the commit; queries admitted
	// afterwards observe at least this version.
	Version int64 `json:"version"`
}

// MeasureRequest is the body of POST /v1/sql/measure.
type MeasureRequest struct {
	SQL string `json:"sql"`
	// Eps/Delta are the additive error and failure probability; zero
	// values take the server defaults. The server enforces floors so one
	// request cannot demand unbounded sampling work.
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Stream requests incremental delivery (NDJSON events, or SSE when
	// the request prefers text/event-stream) instead of one JSON body.
	Stream bool `json:"stream,omitempty"`
	// IncludePhi adds each candidate's constraint, rendered as text, to
	// the response. The text names each numerical null by its ID, z<id>,
	// so every null it names is listed in the response's nullIds.
	IncludePhi bool `json:"includePhi,omitempty"`
}

// MeasuredCandidate is one measured candidate answer on the wire.
type MeasuredCandidate struct {
	Tuple   []Value `json:"tuple"`
	Phi     string  `json:"phi,omitempty"`
	Measure Measure `json:"measure"`
}

// MeasureResponse is the non-streaming response of POST /v1/sql/measure.
type MeasureResponse struct {
	Candidates  []MeasuredCandidate `json:"candidates"`
	Count       int                 `json:"count"`
	Derivations int                 `json:"derivations"`
	// NullIDs are the ascending IDs of the numerical nulls the returned
	// candidates' constraints mention — the nulls the answer depends on,
	// not the database's inventory (its size is InfoResponse.NumNulls).
	NullIDs []int `json:"nullIds,omitempty"`
	// SamplesDrawn and Rounds report the adaptive top-k race's total
	// sampling spend and round count for this query (core.SQLMeasured);
	// omitted when the query did not route through the race.
	SamplesDrawn int `json:"samplesDrawn,omitempty"`
	Rounds       int `json:"rounds,omitempty"`
}

// Stream event kinds.
const (
	EventCandidate = "candidate"
	EventDone      = "done"
	EventError     = "error"
)

// Event is one element of a streaming response. Candidates arrive in
// candidate order with consecutive Idx from 0; the stream ends with
// exactly one "done" (carrying the run summary) or one "error" event.
type Event struct {
	Event string `json:"event"`
	// EventCandidate fields.
	Idx       int                `json:"idx"`
	Candidate *MeasuredCandidate `json:"candidate,omitempty"`
	// EventDone fields. NullIDs lists the nulls the delivered candidates
	// mention and SamplesDrawn/Rounds summarize the adaptive race, as in
	// MeasureResponse.
	Count        int   `json:"count"`
	Derivations  int   `json:"derivations"`
	NullIDs      []int `json:"nullIds,omitempty"`
	SamplesDrawn int   `json:"samplesDrawn,omitempty"`
	Rounds       int   `json:"rounds,omitempty"`
	// EventError fields.
	Error string `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a stable machine-readable cause: "bad-request", "busy",
	// "shutting-down", "internal".
	Code string `json:"code,omitempty"`
}

// Error codes.
const (
	CodeBadRequest   = "bad-request"
	CodeBusy         = "busy"
	CodeShuttingDown = "shutting-down"
	CodeInternal     = "internal"
	CodeReadOnly     = "read-only"
	// CodeDegraded marks writes rejected because the durability layer
	// tripped (WAL append or fsync failure): the server keeps serving
	// reads but refuses to acknowledge writes it could not make durable.
	// Unlike "busy" this does not clear on its own — an operator must
	// restart the server — so clients should not retry it.
	CodeDegraded = "degraded"
	// CodeNotPrimary marks writes sent to a read replica. The write was
	// never attempted; clients must send it to the primary. Retrying here
	// is pointless — replicas do not promote themselves.
	CodeNotPrimary = "not-primary"
	// CodeLogTruncated marks a replication log read whose records were
	// folded into a checkpoint and truncated: the replica must
	// re-bootstrap from GET /v1/replication/checkpoint, which covers
	// everything that was dropped.
	CodeLogTruncated = "log-truncated"
)

// ColumnInfo / RelationInfo / InfoResponse describe the served database
// (GET /v1/info).
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"` // "base" | "num"
}

type RelationInfo struct {
	Name    string       `json:"name"`
	Columns []ColumnInfo `json:"columns"`
}

type InfoResponse struct {
	Relations []RelationInfo `json:"relations"`
	Tuples    int            `json:"tuples"`
	BaseNulls int            `json:"baseNulls"`
	NumNulls  int            `json:"numNulls"`
	// ReadOnly reports that the server rejects writes — either configured
	// that way, or degraded after a durability failure.
	ReadOnly bool `json:"readOnly,omitempty"`
	// Degraded carries the durability-failure reason when the server
	// tripped to read-only (see CodeDegraded); empty otherwise.
	Degraded string `json:"degraded,omitempty"`
	// Sampling aggregates the server's measurement workload since start;
	// nil before the first measured query.
	Sampling *SamplingStats `json:"sampling,omitempty"`
	// Replication reports the server's place in a replication topology;
	// nil on a standalone in-memory server.
	Replication *ReplicationInfo `json:"replication,omitempty"`
	// Sharding reports the hash-sharded topology (arithdbd -shards=N);
	// nil on an unsharded server.
	Sharding *ShardingInfo `json:"sharding,omitempty"`
}

// ShardingInfo is the hash-sharding block of InfoResponse: the shard
// count and the per-shard row counts the hash split actually achieved.
type ShardingInfo struct {
	NumShards  int   `json:"numShards"`
	ShardSizes []int `json:"shardSizes"`
}

// ReplicationInfo is the WAL-position block of InfoResponse and
// HealthResponse: where this server stands in the replication stream.
type ReplicationInfo struct {
	// Role is "primary" (serves the replication log) or "replica"
	// (replays it).
	Role string `json:"role"`
	// WalSeq is the primary's durable sequence number: the last batch
	// that was WAL-appended and fsync'd.
	WalSeq uint64 `json:"walSeq,omitempty"`
	// CheckpointSeq is the sequence the primary's newest durable
	// checkpoint covers (replicas bootstrapping now start here).
	CheckpointSeq uint64 `json:"checkpointSeq,omitempty"`
	// LastAppliedSeq is the replica's replay frontier: every batch up to
	// and including it is applied and locally durable.
	LastAppliedSeq uint64 `json:"lastAppliedSeq,omitempty"`
	// PrimarySeq is the primary's durable seq as last observed by the
	// replica (0 before the first contact).
	PrimarySeq uint64 `json:"primarySeq,omitempty"`
	// ReplicaLag = max(0, PrimarySeq - LastAppliedSeq): how many committed
	// batches the replica has not yet applied, by last observation. Reads
	// served here are at most this stale, in batches.
	ReplicaLag uint64 `json:"replicaLag"`
}

// HealthResponse is the body of GET /healthz. Status is "ok",
// "degraded", or "draining"; the WAL-position fields mirror
// ReplicationInfo so load balancers and failover clients can route on
// staleness without a second request.
type HealthResponse struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	Role   string `json:"role,omitempty"`
	WalSeq uint64 `json:"walSeq,omitempty"`
	// LastAppliedSeq / ReplicaLag are set on replicas (see ReplicationInfo).
	LastAppliedSeq uint64  `json:"lastAppliedSeq,omitempty"`
	ReplicaLag     *uint64 `json:"replicaLag,omitempty"`
}

// ReplCheckpointHeader is the first NDJSON line of
// GET /v1/replication/checkpoint: the covered sequence number and how
// many file lines follow. The stream ends with a ReplFile line whose
// Done is true; a reader that never sees it received a torn stream and
// must re-fetch.
type ReplCheckpointHeader struct {
	Seq   uint64 `json:"seq"`
	Files int    `json:"files"`
}

// ReplFile is one checkpoint file line (Data is base64 under
// encoding/json), or the stream terminator when Done is set. CRC is
// wal.Checksum(header.Seq, Data): the content bound to the checkpoint it
// belongs to.
type ReplFile struct {
	Name string `json:"name,omitempty"`
	Data []byte `json:"data,omitempty"`
	CRC  uint32 `json:"crc,omitempty"`
	Done bool   `json:"done,omitempty"`
}

// ReplRecord is one NDJSON line of GET /v1/replication/log: either a
// shipped WAL record (Seq/Payload/CRC, with CRC = wal.Checksum(Seq,
// Payload), the exact on-disk framing checksum) or a heartbeat
// (Heartbeat true, no payload). Every line carries PrimarySeq, the
// primary's durable frontier at write time, so replicas track lag even
// while idle.
type ReplRecord struct {
	Heartbeat  bool   `json:"hb,omitempty"`
	Seq        uint64 `json:"seq,omitempty"`
	Payload    []byte `json:"payload,omitempty"`
	CRC        uint32 `json:"crc,omitempty"`
	PrimarySeq uint64 `json:"primarySeq"`
}

// SamplingStats is the server-lifetime sampling telemetry of InfoResponse:
// how many measured queries ran, how many routed through the adaptive
// top-k race, and the cumulative sampling spend the race reported.
type SamplingStats struct {
	// Runs counts completed measure requests (buffered and streaming).
	Runs int64 `json:"runs"`
	// AdaptiveRuns counts the subset that routed through the adaptive race
	// (LIMIT-k queries without the escape hatch).
	AdaptiveRuns int64 `json:"adaptiveRuns"`
	// SamplesDrawn and Rounds accumulate the race's reported spend.
	SamplesDrawn int64 `json:"samplesDrawn"`
	Rounds       int64 `json:"rounds"`
}
