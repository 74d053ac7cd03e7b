// Package client is the Go client of the arithdb server wire protocol
// (internal/server). It is what `arithdb sql -connect` and the end-to-end
// tests speak; responses are lossless, so a client-side result is
// bit-identical to the Session call the server ran.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/value"
	"repro/internal/wire"
)

// Client talks to an ordered list of arithdbd endpoints. With one
// endpoint it behaves as before; with several (see NewFailover) reads
// fail over down the list while writes stay pinned to the first — the
// primary — because replicas reject them and a write must never be
// silently re-routed to a server that may disagree about its fate.
type Client struct {
	endpoints []string
	mu        sync.Mutex // guards cur
	cur       int        // sticky index of the endpoint serving reads
	hc        *http.Client
	retry     RetryPolicy   // zero: no retries (see WithRetry)
	attemptTO time.Duration // per-attempt deadline (see WithAttemptTimeout)
}

// New returns a client for the server at base (e.g. "http://localhost:8080").
func New(base string) *Client {
	return NewFailover([]string{base})
}

// NewFailover returns a client over an ordered endpoint list: the first
// is the primary (all writes go there, and reads prefer it); later
// entries are read fallbacks, typically replicas. Reads that fail with a
// transport error or an unavailable/degraded 503 advance to the next
// endpoint and stick there, so a fleet behind a dead primary keeps
// serving reads without per-request rediscovery.
func NewFailover(endpoints []string) *Client {
	eps := make([]string, 0, len(endpoints))
	for _, e := range endpoints {
		if e = strings.TrimRight(strings.TrimSpace(e), "/"); e != "" {
			eps = append(eps, e)
		}
	}
	if len(eps) == 0 {
		eps = []string{""}
	}
	return &Client{endpoints: eps, hc: &http.Client{}}
}

// NewWith returns a client using the given http.Client (tests inject the
// in-process listener's client).
func NewWith(base string, hc *http.Client) *Client {
	return NewFailoverWith([]string{base}, hc)
}

// NewFailoverWith is NewFailover with an injected http.Client.
func NewFailoverWith(endpoints []string, hc *http.Client) *Client {
	c := NewFailover(endpoints)
	if hc != nil {
		c.hc = hc
	}
	return c
}

// WithAttemptTimeout bounds each individual attempt (layered under
// WithRetry): a hung endpoint costs at most d before the retry loop
// moves on — and, for reads, fails over. Zero means no per-attempt
// deadline beyond the caller's context.
func (c *Client) WithAttemptTimeout(d time.Duration) *Client {
	c.attemptTO = d
	return c
}

// Current returns the endpoint currently serving reads.
func (c *Client) Current() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints[c.cur]
}

// pickBase selects the endpoint for one attempt: writes always hit the
// primary; reads hit the sticky current endpoint.
func (c *Client) pickBase(idempotent bool) string {
	if !idempotent {
		return c.endpoints[0]
	}
	return c.Current()
}

// noteFailure records a read attempt's failure against the endpoint that
// served it, advancing the sticky index when the failure is the kind
// failover can help with: a transport error (endpoint unreachable or
// hung past the attempt deadline) or any 503 — including degraded, which
// is sticky on that server until an operator intervenes, so waiting it
// out is pointless but a replica can still serve the read.
func (c *Client) noteFailure(base string, err error) {
	if len(c.endpoints) < 2 {
		return
	}
	var se *ServerError
	if errors.As(err, &se) && se.Status != http.StatusServiceUnavailable {
		return // the endpoint is up and answering; failover cannot help
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Advance only if nobody else already moved off the failed endpoint.
	if c.endpoints[c.cur] == base {
		c.cur = (c.cur + 1) % len(c.endpoints)
	}
}

// ServerError is a structured non-2xx response.
type ServerError struct {
	Status int
	Code   string
	Msg    string
	// RetryAfter is the server's Retry-After hint, when present.
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d, %s)", e.Msg, e.Status, e.Code)
}

// IsBusy reports whether the server shed this request under admission
// control (queue timeout or shutdown drain) — the retryable overload
// responses.
func IsBusy(err error) bool {
	var se *ServerError
	if !errors.As(err, &se) {
		return false
	}
	return se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable
}

// roundTrip runs one request under the retry policy. idempotent marks
// requests safe to re-run when a transport error hides the first
// attempt's fate; structured pre-commit rejections (429, non-degraded
// 503) are retried regardless — see retry.go.
func (c *Client) roundTrip(ctx context.Context, method, path string, idempotent bool, in, out any) error {
	return c.withRetries(ctx, idempotent, func() error {
		base := c.pickBase(idempotent)
		err := c.do(ctx, base, method, path, in, out)
		if err != nil && idempotent {
			c.noteFailure(base, err)
		}
		return err
	})
}

func (c *Client) do(ctx context.Context, base, method, path string, in, out any) error {
	if c.attemptTO > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.attemptTO)
		defer cancel()
	}
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	drain(resp.Body)
	return nil
}

// drainLimit bounds drain: past it, dropping the connection is cheaper
// than reading on.
const drainLimit = 64 << 10

// drain reads what is left of a response body that has been decoded to
// the end of its value. The decoder stops short of the trailing newline
// and the chunked terminator, and net/http drops a connection whose
// body is closed before EOF instead of reusing it, so without this
// every request would dial anew.
func drain(body io.Reader) {
	_, _ = io.CopyN(io.Discard, body, drainLimit)
}

func decodeError(resp *http.Response) error {
	se := &ServerError{Status: resp.StatusCode, Code: wire.CodeInternal}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		se.RetryAfter = parseRetryAfter(ra)
	}
	var er wire.ErrorResponse
	err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er)
	drain(resp.Body)
	if err == nil && er.Error != "" {
		se.Msg = er.Error
		if er.Code != "" {
			se.Code = er.Code
		}
	} else {
		se.Msg = resp.Status
	}
	return se
}

// parseRetryAfter reads a Retry-After header in either of its two RFC
// 9110 forms: delta-seconds, or an HTTP-date (proxies and load balancers
// commonly rewrite one into the other). A date is converted to the
// remaining wait, clamped at zero so a date already in the past means
// "retry now" rather than a negative backoff. Unparseable values yield
// zero — no hint.
func parseRetryAfter(ra string) time.Duration {
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(ra); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.roundTrip(ctx, http.MethodGet, "/healthz", true, nil, nil)
}

// Info fetches the served database's schema and null inventory.
func (c *Client) Info(ctx context.Context) (*wire.InfoResponse, error) {
	var out wire.InfoResponse
	if err := c.roundTrip(ctx, http.MethodGet, "/v1/info", true, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Insert commits a batch of tuples into one relation on the server. The
// batch is atomic: the server validates every tuple before appending the
// first, so either all commit (as one database version step) or none do.
// Queries admitted after a successful Insert observe the new tuples; a
// query already running keeps its pinned snapshot.
func (c *Client) Insert(ctx context.Context, relation string, tuples []value.Tuple) (*wire.InsertResponse, error) {
	req := wire.InsertRequest{Relation: relation, Tuples: make([][]wire.Value, len(tuples))}
	for i, t := range tuples {
		req.Tuples[i] = wire.FromTuple(t)
	}
	var out wire.InsertResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/insert", false, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MeasureSQL runs the fused measure pipeline on the server and returns
// the buffered result. Zero eps/delta take the server defaults.
func (c *Client) MeasureSQL(ctx context.Context, sql string, eps, delta float64) (*wire.MeasureResponse, error) {
	var out wire.MeasureResponse
	req := wire.MeasureRequest{SQL: sql, Eps: eps, Delta: delta}
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/sql/measure", true, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ErrStreamInterrupted marks a measure stream that delivered some
// candidate events and then died without recovering: the caller holds a
// usable prefix of the result, not all of it. MeasureSQLStream wraps the
// underlying cause with this sentinel (errors.Is matches it) only after
// exhausting its reconnect attempts.
var ErrStreamInterrupted = errors.New("client: measure stream interrupted")

// MeasureSQLStream runs the fused pipeline with incremental delivery:
// yield receives each candidate event in candidate order as the server
// finalizes it. The terminal "done" event is returned; a terminal
// "error" event (or a yield error) aborts with that error.
//
// Under a retry policy the stream is resumable: a mid-stream transport
// failure (connection cut, torn NDJSON frame, server restart) reconnects
// — failing over across endpoints like any read — re-issues the query,
// and skips candidate events at or below the last index already
// delivered, so yield sees each candidate at most once. Candidate
// measurements are deterministic per database version (per-candidate
// seeding), so a resume against an unchanged database continues the
// identical result; if writes landed in between, later candidates
// reflect the newer snapshot, exactly as if the caller had re-issued the
// query itself. With retries exhausted (or disabled), a started stream's
// failure surfaces wrapped in ErrStreamInterrupted.
func (c *Client) MeasureSQLStream(ctx context.Context, sql string, eps, delta float64, yield func(ev wire.Event) error) (*wire.Event, error) {
	blob, err := json.Marshal(wire.MeasureRequest{SQL: sql, Eps: eps, Delta: delta, Stream: true})
	if err != nil {
		return nil, err
	}
	attempts := 1
	if c.retry.enabled() {
		attempts = c.retry.MaxAttempts
	}
	lastIdx := -1 // highest candidate index already delivered to yield
	started := false
	for try := 1; ; try++ {
		done, terminal, err := c.streamOnce(ctx, blob, &lastIdx, &started, yield)
		if err == nil {
			return done, nil
		}
		if terminal {
			return nil, err
		}
		if try >= attempts || !c.retryable(ctx, err, true) {
			if started {
				return nil, fmt.Errorf("%w after candidate %d: %w", ErrStreamInterrupted, lastIdx, err)
			}
			return nil, err
		}
		t := time.NewTimer(c.retry.backoff(try, retryAfter(err)))
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, err
		case <-t.C:
		}
	}
}

// streamOnce runs one connection lifetime of the measure stream,
// delivering only candidates past *lastIdx. terminal marks errors a
// reconnect cannot fix (yield failed, the server computed an error, a
// protocol violation); everything else — connect failures, cuts, torn
// frames, a stream that ends without "done" — is resumable.
func (c *Client) streamOnce(ctx context.Context, blob []byte, lastIdx *int, started *bool, yield func(ev wire.Event) error) (done *wire.Event, terminal bool, err error) {
	base := c.pickBase(true)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sql/measure", bytes.NewReader(blob))
	if err != nil {
		return nil, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		c.noteFailure(base, err)
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := decodeError(resp)
		c.noteFailure(base, err)
		return nil, false, err
	}
	*started = true
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev wire.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			// A line that does not parse is a torn frame — the connection died
			// mid-write. Resume, not fail.
			c.noteFailure(base, err)
			return nil, false, fmt.Errorf("client: torn stream event: %w", err)
		}
		switch ev.Event {
		case wire.EventCandidate:
			if ev.Candidate == nil {
				return nil, true, fmt.Errorf("client: candidate event %d without a candidate payload", ev.Idx)
			}
			if ev.Idx <= *lastIdx {
				continue // already delivered before the reconnect
			}
			if err := yield(ev); err != nil {
				return nil, true, err
			}
			*lastIdx = ev.Idx
		case wire.EventDone:
			drain(resp.Body) // the server ends the stream right after done
			return &ev, false, nil
		case wire.EventError:
			return nil, true, &ServerError{Status: http.StatusOK, Code: wire.CodeInternal, Msg: ev.Error}
		default:
			return nil, true, fmt.Errorf("client: unknown stream event %q", ev.Event)
		}
	}
	if err := sc.Err(); err != nil {
		c.noteFailure(base, err)
		return nil, false, err
	}
	c.noteFailure(base, io.ErrUnexpectedEOF)
	return nil, false, fmt.Errorf("client: stream ended without a done event: %w", io.ErrUnexpectedEOF)
}
