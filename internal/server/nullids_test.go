package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/wire"
)

const lookupQuery = `SELECT P.id FROM Products P, Market M
	WHERE P.seg = 'seg0' AND P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis`

// measureRaw sends one measure request and returns the raw buffered
// body, or, with req.Stream, the raw lines of the NDJSON stream.
func measureRaw(t *testing.T, url string, req wire.MeasureRequest) [][]byte {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sql/measure", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !req.Stream {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{body}
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 8<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestMeasureResponseIgnoresUnrelatedNulls: a lookup's response lists the
// nulls its answer mentions, not the database's inventory, so neither the
// buffered body nor the stream's done event grows when 1 000 rows of
// fresh nulls that join nothing are inserted. The one field that may
// move is each measure's "k", the ambient dimension: it counts every
// null of the database by definition (RelevantK is the answer's).
func TestMeasureResponseIgnoresUnrelatedNulls(t *testing.T) {
	_, c, hts := newTestServer(t, Config{DB: testDB().Clone(), Engine: core.Options{Seed: 7}})
	buffered := wire.MeasureRequest{SQL: lookupQuery + " LIMIT 5", Eps: 0.05, Delta: 0.25}
	streamed := buffered
	streamed.Stream = true
	ambient := regexp.MustCompile(`"k":\d+`)
	sizes := func() (body, done int) {
		lines := measureRaw(t, hts.URL, streamed)
		blob := ambient.ReplaceAll(measureRaw(t, hts.URL, buffered)[0], []byte(`"k":0`))
		return len(blob), len(lines[len(lines)-1])
	}
	body, done := sizes()

	ctx := context.Background()
	for b := 0; b < 10; b++ {
		batch := make([]value.Tuple, 100)
		for i := range batch {
			n := 100*b + i
			batch[i] = value.Tuple{value.Base(fmt.Sprintf("fresh%d", n)), value.NullNum(1_000_000 + n), value.Num(0.5)}
		}
		if _, err := c.Insert(ctx, "Market", batch); err != nil {
			t.Fatal(err)
		}
	}
	body2, done2 := sizes()
	if body2 > body || done2 > done {
		t.Fatalf("after 1000 unrelated null rows: body %d → %d bytes, done event %d → %d bytes",
			body, body2, done, done2)
	}
}

// TestIncludePhiNamesListedNulls: with includePhi, a constraint's text
// names each variable by the null it stands for, so the nulls the texts
// name are exactly the response's nullIds — buffered and streamed. A
// joining row whose null ID is not its inventory position makes the
// difference between the two namings show.
func TestIncludePhiNamesListedNulls(t *testing.T) {
	d := testDB().Clone()
	const gapID = 5000
	if ids := d.NumNulls(); ids[len(ids)-1] >= gapID {
		t.Fatalf("null IDs reach %d: the row below would not open a gap", ids[len(ids)-1])
	}
	d.MustInsert("Market", value.Base("seg0"), value.NullNum(gapID), value.Num(0.5))
	_, _, hts := newTestServer(t, Config{DB: d, Engine: core.Options{Seed: 7}})
	zvar := regexp.MustCompile(`z(\d+)`)
	named := func(phis []string) []int {
		var ids []int
		for _, phi := range phis {
			for _, m := range zvar.FindAllStringSubmatch(phi, -1) {
				id, err := strconv.Atoi(m[1])
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	for _, src := range []string{lookupQuery + " LIMIT 5", lookupQuery, testWorkloads[3]} {
		req := wire.MeasureRequest{SQL: src, Eps: 0.05, Delta: 0.25, IncludePhi: true}
		var resp wire.MeasureResponse
		if err := json.Unmarshal(measureRaw(t, hts.URL, req)[0], &resp); err != nil {
			t.Fatal(err)
		}
		var phis []string
		for _, c := range resp.Candidates {
			phis = append(phis, c.Phi)
		}
		got := named(phis)
		if len(got) == 0 || !slices.Equal(got, resp.NullIDs) {
			t.Fatalf("%.30s: buffered phi texts name %v, nullIds %v", src, got, resp.NullIDs)
		}
		if src == lookupQuery && !slices.Contains(got, gapID) {
			t.Fatalf("%.30s: phi texts name %v, not the joining null %d", src, got, gapID)
		}

		req.Stream = true
		phis = phis[:0]
		var done wire.Event
		for _, line := range measureRaw(t, hts.URL, req) {
			var ev wire.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Candidate != nil {
				phis = append(phis, ev.Candidate.Phi)
			}
			done = ev
		}
		if got := named(phis); done.Event != wire.EventDone || !slices.Equal(got, done.NullIDs) {
			t.Fatalf("%.30s: streamed phi texts name %v, done %q nullIds %v", src, got, done.Event, done.NullIDs)
		}
		if !slices.Equal(done.NullIDs, resp.NullIDs) {
			t.Fatalf("%.30s: done nullIds %v, buffered %v", src, done.NullIDs, resp.NullIDs)
		}
	}
}
