package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/value"
	"repro/internal/wire"
)

// TestClientReusesConnection: the client reads a response to its end
// before closing it, so back-to-back requests whose bodies exceed 4 KB —
// chunked, with a trailing newline and terminator after the JSON value —
// ride one keep-alive connection, buffered and streamed alike. Error
// responses do too.
func TestClientReusesConnection(t *testing.T) {
	var big wire.MeasureResponse
	for i := 0; i < 100; i++ {
		big.Candidates = append(big.Candidates, wire.MeasuredCandidate{
			Tuple: wire.FromTuple(value.Tuple{value.Base(fmt.Sprintf("candidate-%d", i))}),
		})
	}
	big.Count = len(big.Candidates)
	if blob, _ := json.Marshal(big); len(blob) <= 4<<10 {
		t.Fatalf("body of %d bytes: not over 4 KB", len(blob))
	}
	var conns atomic.Int64
	hts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.MeasureRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.SQL == "bad" {
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: "bad", Code: wire.CodeBadRequest})
			return
		}
		enc := json.NewEncoder(w)
		if !req.Stream {
			_ = enc.Encode(big)
			return
		}
		for i := range big.Candidates {
			_ = enc.Encode(wire.Event{Event: wire.EventCandidate, Idx: i, Candidate: &big.Candidates[i]})
		}
		_ = enc.Encode(wire.Event{Event: wire.EventDone, Count: big.Count})
	}))
	hts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hts.Start()
	defer hts.Close()

	c := NewWith(hts.URL, hts.Client())
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		got, err := c.MeasureSQL(ctx, "q", 0, 0)
		if err != nil || got.Count != big.Count {
			t.Fatalf("request %d: %v, count %v", i, err, got)
		}
		if _, err := c.MeasureSQLStream(ctx, "q", 0, 0, func(wire.Event) error { return nil }); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if _, err := c.MeasureSQL(ctx, "bad", 0, 0); err == nil {
			t.Fatalf("request %d: bad request accepted", i)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("60 requests opened %d connections, want 1", n)
	}
}
