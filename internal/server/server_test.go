package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/sqlfront"
	"repro/internal/wire"
)

// testDB is the shared sales database of the server suite — one
// immutable instance, exactly the multi-user deployment shape (its lazy
// indexes and inventories are built concurrently by whichever request
// gets there first).
var testDB = sync.OnceValue(func() *db.Database {
	d, err := datagen.Generate(datagen.Config{
		Seed: 4, Products: 80, Orders: 60, Market: 24, Segments: 8,
		NullRate: 0.3, MarketNullRate: 0.6,
	})
	if err != nil {
		panic(err)
	}
	return d
})

// testWorkloads are the queries of the e2e suite: the three Figure 1
// decision-support workloads plus LIMIT/arithmetic variants.
var testWorkloads = []string{
	datagen.CompetitiveAdvantage,
	datagen.NeverKnowinglyUndersold,
	datagen.UnfairDiscount,
	`SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 6`,
	`SELECT P.id FROM Products P WHERE P.rrp * P.dis > 50 LIMIT 5`,
}

// newTestServer spins up the server on a random port in-process and
// returns it with a wire client.
func newTestServer(t testing.TB, cfg Config) (*Server, *client.Client, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil && cfg.Source == nil && cfg.Sharded == nil {
		cfg.DB = testDB()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s)
	t.Cleanup(hts.Close)
	return s, client.NewWith(hts.URL, hts.Client()), hts
}

// directMeasure is the reference: the Session pipeline run in-process
// with the same engine options the server uses per request.
func directMeasure(t testing.TB, opts core.Options, src string, eps, delta float64) *core.SQLMeasured {
	t.Helper()
	q, err := sqlfront.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.New(opts).MeasureSQL(q, testDB(), eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertCandidateParity requires a wire candidate to be byte-identical
// to the direct pipeline's: same tuple, same measure bits, same method
// metadata (and the same exact rational when there is one).
func assertCandidateParity(t testing.TB, label string, i int, got wire.MeasuredCandidate, want core.MeasuredCandidate) {
	t.Helper()
	tuple, err := wire.ToTuple(got.Tuple)
	if err != nil {
		t.Fatalf("%s: candidate %d: %v", label, i, err)
	}
	if !tuple.Equal(want.Tuple) {
		t.Fatalf("%s: candidate %d: tuple %v, want %v", label, i, tuple, want.Tuple)
	}
	m, err := got.Measure.Result()
	if err != nil {
		t.Fatalf("%s: candidate %d: %v", label, i, err)
	}
	w := want.Measure
	if math.Float64bits(m.Value) != math.Float64bits(w.Value) {
		t.Fatalf("%s: candidate %d: μ = %v, want %v (bits differ)", label, i, m.Value, w.Value)
	}
	if m.Exact != w.Exact || m.Method != w.Method || m.Samples != w.Samples ||
		m.K != w.K || m.RelevantK != w.RelevantK {
		t.Fatalf("%s: candidate %d: %+v, want %+v", label, i, m, w)
	}
	if (m.Rat == nil) != (w.Rat == nil) || (m.Rat != nil && m.Rat.Cmp(w.Rat) != 0) {
		t.Fatalf("%s: candidate %d: rat %v, want %v", label, i, m.Rat, w.Rat)
	}
}

func assertParity(t testing.TB, label string, got *wire.MeasureResponse, want *core.SQLMeasured) {
	t.Helper()
	if got.Count != len(want.Candidates) || got.Derivations != want.Derivations {
		t.Fatalf("%s: shape %d/%d, want %d/%d", label,
			got.Count, got.Derivations, len(want.Candidates), want.Derivations)
	}
	if !slices.Equal(got.NullIDs, want.NullIDs) {
		t.Fatalf("%s: nullIds %v, want %v", label, got.NullIDs, want.NullIDs)
	}
	for i, wc := range got.Candidates {
		assertCandidateParity(t, label, i, wc, want.Candidates[i])
	}
}

// TestServerMeasureParity: the Figure 1 / SQL example workloads run
// through the HTTP client are byte-identical to direct Session.MeasureSQL.
func TestServerMeasureParity(t *testing.T) {
	opts := core.Options{Seed: 7}
	_, c, _ := newTestServer(t, Config{Engine: opts})
	ctx := context.Background()
	for _, src := range testWorkloads {
		for _, ed := range [][2]float64{{0.05, 0.25}, {0.1, 0.1}} {
			want := directMeasure(t, opts, src, ed[0], ed[1])
			got, err := c.MeasureSQL(ctx, src, ed[0], ed[1])
			if err != nil {
				t.Fatal(err)
			}
			label := src[:min(30, len(src))]
			assertParity(t, label, got, want)
		}
	}
}

// TestServerInfo: the introspection endpoint reflects the served
// database.
func TestServerInfo(t *testing.T) {
	opts := core.Options{Seed: 7}
	_, c, _ := newTestServer(t, Config{Engine: opts})
	ctx := context.Background()

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != testDB().Size() || len(info.Relations) != 3 {
		t.Fatalf("info = %+v", info)
	}
}

// TestServerRequestValidation: malformed input comes back as structured
// 4xx errors, never 500s or hangs.
func TestServerRequestValidation(t *testing.T) {
	_, c, hts := newTestServer(t, Config{Engine: core.Options{Seed: 7}})
	ctx := context.Background()

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"bad json", `{"sql":`, http.StatusBadRequest},
		{"trailing garbage", `{"sql":"SELECT P.id FROM Products P"} extra`, http.StatusBadRequest},
		{"missing sql", `{"eps":0.1}`, http.StatusBadRequest},
		{"syntax error", `{"sql":"SELEKT nope"}`, http.StatusBadRequest},
		{"unknown relation", `{"sql":"SELECT X.a FROM Nope X"}`, http.StatusBadRequest},
		{"eps too small", `{"sql":"SELECT P.id FROM Products P","eps":1e-9}`, http.StatusBadRequest},
		{"eps above one", `{"sql":"SELECT P.id FROM Products P","eps":2}`, http.StatusBadRequest},
		{"delta out of range", `{"sql":"SELECT P.id FROM Products P","delta":1}`, http.StatusBadRequest},
		{"too many relations", `{"sql":"SELECT A.id FROM Products A, Products B, Products C, Products D,
			Products E, Products F, Products G, Products H, Products I, Products J, Products K,
			Products L, Products M, Products N, Products O, Products P, Products Q"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := hts.Client().Post(hts.URL+"/v1/sql/measure", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er wire.ErrorResponse
		decErr := jsonDecode(resp, &er)
		if resp.StatusCode != tc.status || decErr != nil || er.Error == "" {
			t.Fatalf("%s: status %d (want %d), body err %v, msg %q",
				tc.name, resp.StatusCode, tc.status, decErr, er.Error)
		}
	}

	// Wrong method and unknown path.
	resp, err := hts.Client().Get(hts.URL + "/v1/sql/measure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET measure: %d", resp.StatusCode)
	}
	resp, err = hts.Client().Get(hts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}

	// The go client surfaces structured errors.
	_, err = c.MeasureSQL(ctx, "SELEKT", 0.1, 0.1)
	var se *client.ServerError
	if !asServerError(err, &se) || se.Status != http.StatusBadRequest || se.Code != wire.CodeBadRequest {
		t.Fatalf("client error = %v", err)
	}

	// Health is alive.
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConfigFloorsClampDefaults: raising a floor above the built-in
// default must raise the default with it, not leave a server whose
// eps-omitting requests all 400.
func TestConfigFloorsClampDefaults(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Engine: core.Options{Seed: 7}, MinEps: 0.06, MinDelta: 0.2})
	res, err := c.MeasureSQL(context.Background(), `SELECT P.id FROM Products P LIMIT 2`, 0, 0)
	if err != nil {
		t.Fatalf("defaults below raised floors: %v", err)
	}
	if res.Count == 0 {
		t.Fatal("no candidates")
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func asServerError(err error, target **client.ServerError) bool { return errors.As(err, target) }

// TestServerCompileCacheDisabled: a server whose engines run with
// CompileCacheSize -1 holds no kernel cache and answers every workload
// with the same /v1/sql/measure body as the default configuration.
func TestServerCompileCacheDisabled(t *testing.T) {
	off, _, offHTS := newTestServer(t, Config{Engine: core.Options{Seed: 7, CompileCacheSize: -1}})
	def, _, defHTS := newTestServer(t, Config{Engine: core.Options{Seed: 7}})
	if off.kernels != nil {
		t.Fatal("a server with caching disabled holds a kernel cache")
	}
	if def.kernels == nil {
		t.Fatal("the default server holds no kernel cache")
	}
	for _, src := range testWorkloads {
		req := wire.MeasureRequest{SQL: src, Eps: 0.05, Delta: 0.25}
		// Twice: the default server's second answer comes from its warm cache.
		for pass := 0; pass < 2; pass++ {
			got, want := measureRaw(t, offHTS.URL, req)[0], measureRaw(t, defHTS.URL, req)[0]
			if string(got) != string(want) {
				t.Fatalf("%.30s pass %d: uncached body\n%s\ndefault body\n%s", src, pass, got, want)
			}
		}
	}
}
