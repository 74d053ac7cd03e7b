package client

// Transport-level retries. The rules are conservative because /v1/insert
// is not idempotent: a lost response may mean a committed batch, so only
// responses that PROVE the server rejected the request before commit
// (429 busy, 503 shutting-down — both written before the write lock does
// any work) are retried for inserts. Read-only requests (health, info,
// measure) additionally retry on transport errors such as
// connection resets, where the request may or may not have been
// processed — re-running a read is always safe. A 503 with code
// "degraded" is never retried: the durability layer tripped and stays
// tripped until an operator intervenes.

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/wire"
)

// RetryPolicy configures capped exponential backoff with full jitter.
// The zero value disables retries; DefaultRetry is a sane interactive
// policy.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 2 disable retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt k sleeps a uniform
	// random duration in (0, min(MaxDelay, BaseDelay·2^k)]. A server
	// Retry-After overrides the computed cap when it is longer.
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep.
	MaxDelay time.Duration
}

// DefaultRetry is the policy the CLI uses: 4 attempts, 100ms base, 2s cap.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}

// WithRetry returns the client with the retry policy installed. The
// default client performs no retries, so admission-control pushback
// (429s) stays visible to callers that want to see it.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p
	return c
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts >= 2 }

// backoff computes the sleep before attempt (attempt is 1-based: the
// sleep after the attempt-th try), honoring a server-provided
// Retry-After hint.
func (p RetryPolicy) backoff(attempt int, hint time.Duration) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Full jitter: uncoordinated clients spread out instead of
	// re-stampeding the server in lockstep.
	d = time.Duration(1 + rand.Int63n(int64(d)))
	if hint > d {
		d = hint
	}
	return d
}

// retryable classifies an attempt's error. idempotent marks requests
// that are safe to re-run even when the first attempt's fate is unknown.
// ctx is the caller's context: a deadline error with ctx still live is a
// per-attempt timeout (WithAttemptTimeout) — a hung endpoint, retried
// and failed over like any transport error — not the caller giving up.
func (c *Client) retryable(ctx context.Context, err error, idempotent bool) bool {
	var se *ServerError
	if errors.As(err, &se) {
		// A structured response proves the server saw and rejected the
		// request — nothing committed, safe to retry even for inserts —
		// but only transient rejections are worth it.
		switch {
		case se.Code == wire.CodeDegraded:
			// Sticky on that server until operator action: waiting it out is
			// pointless, but with fallback endpoints the retry goes elsewhere
			// (noteFailure already advanced the read index).
			return idempotent && len(c.endpoints) > 1
		case se.Status == http.StatusTooManyRequests:
			return true
		case se.Status == http.StatusServiceUnavailable:
			return true
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if ctx.Err() != nil {
			return false // the caller's own context ended it
		}
		return idempotent // per-attempt deadline: the endpoint hung
	}
	// Transport error (connection refused/reset, broken pipe): the
	// request may have been processed, so only idempotent requests retry.
	return idempotent
}

// retryAfter extracts the server's Retry-After hint, if the error
// carries one.
func retryAfter(err error) time.Duration {
	var se *ServerError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// withRetries runs attempt under the policy. attempt must be
// re-runnable: it builds its own request from retained inputs.
func (c *Client) withRetries(ctx context.Context, idempotent bool, attempt func() error) error {
	if !c.retry.enabled() {
		return attempt()
	}
	var err error
	for try := 1; ; try++ {
		if err = attempt(); err == nil || try >= c.retry.MaxAttempts || !c.retryable(ctx, err, idempotent) {
			return err
		}
		t := time.NewTimer(c.retry.backoff(try, retryAfter(err)))
		select {
		case <-ctx.Done():
			t.Stop()
			return err // the attempt error is more informative than ctx.Err()
		case <-t.C:
		}
	}
}
