package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestServerStreamingOrder: the incrementally delivered top-k stream is
// exactly the final slice result — consecutive indices from 0 (so no
// reordering and no duplicates), every prefix of the stream a prefix of
// the buffered response, LIMIT respected, and a terminal done event
// whose summary matches.
func TestServerStreamingOrder(t *testing.T) {
	opts := core.Options{Seed: 7}
	_, c, _ := newTestServer(t, Config{Engine: opts})
	ctx := context.Background()

	for _, src := range testWorkloads {
		full, err := c.MeasureSQL(ctx, src, 0.05, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		done, err := c.MeasureSQLStream(ctx, src, 0.05, 0.25, func(ev wire.Event) error {
			if ev.Idx != next {
				t.Fatalf("stream idx %d, want %d (reordered or duplicated)", ev.Idx, next)
			}
			if next >= full.Count {
				t.Fatalf("stream delivered %d candidates, beyond the final %d (LIMIT violated)", next+1, full.Count)
			}
			// The prefix property: candidate i of the stream IS candidate
			// i of the buffered result, bit for bit.
			want, err := full.Candidates[ev.Idx].Measure.Result()
			if err != nil {
				t.Fatal(err)
			}
			wantTuple, err := wire.ToTuple(full.Candidates[ev.Idx].Tuple)
			if err != nil {
				t.Fatal(err)
			}
			assertCandidateParity(t, "stream", ev.Idx, *ev.Candidate,
				core.MeasuredCandidate{Tuple: wantTuple, Measure: want})
			next++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != full.Count {
			t.Fatalf("stream delivered %d candidates, want %d", next, full.Count)
		}
		if done.Count != full.Count || done.Derivations != full.Derivations {
			t.Fatalf("done event %d/%d, want %d/%d", done.Count, done.Derivations, full.Count, full.Derivations)
		}
		if !slices.Equal(done.NullIDs, full.NullIDs) {
			t.Fatalf("done nullIds %v, want %v", done.NullIDs, full.NullIDs)
		}
	}
}

// TestServerStreamingSSE: the same stream under Accept: text/event-stream
// uses SSE framing with matching event names and payloads.
func TestServerStreamingSSE(t *testing.T) {
	_, _, hts := newTestServer(t, Config{Engine: core.Options{Seed: 7}})
	src := testWorkloads[3] // LIMIT 6 workload

	body, err := json.Marshal(wire.MeasureRequest{SQL: src, Eps: 0.05, Delta: 0.25, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, hts.URL+"/v1/sql/measure", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := hts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events, datas, candidates int
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events++
			switch name := strings.TrimPrefix(line, "event: "); name {
			case wire.EventCandidate:
				candidates++
			case wire.EventDone:
				sawDone = true
			case wire.EventError:
				t.Fatalf("error event in SSE stream")
			}
		case strings.HasPrefix(line, "data: "):
			datas++
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 || events != datas || !sawDone || candidates == 0 || candidates > 6 {
		t.Fatalf("SSE shape: %d events, %d datas, %d candidates, done=%v", events, datas, candidates, sawDone)
	}
}
