package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload of BENCHMARK.json end to end on shrunken
// databases with a 300 ms window and a shortened layer pass, and holds the
// benchmark to its own contract: the metric and workload names are exactly
// BENCHMARK.json's, and no operation fails.
func TestSmoke(t *testing.T) {
	t.Chdir("..") // BENCHMARK.json sits at the root of the checkout
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the benchmark has %d", specFile, len(sp.Workloads), len(workloads))
	}
	cfg := config{
		seed: 7, window: 300 * time.Millisecond, trace: true,
		setupReps: 1, feedTail: 200 * time.Millisecond, recoveries: 2, layerScale: 16, dbScale: 10,
		outDir: t.TempDir(),
	}
	for i, listed := range sp.Workloads {
		w := workloads[i]
		if listed.Name != w.name || !name.MatchString(w.name) {
			t.Fatalf("workload %d is %q, %s lists %q", i, w.name, specFile, listed.Name)
		}
		out, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		endToEnd, perLayer := out.endToEnd, out.perLayer
		if out.failed != 0 || out.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", w.name, out.failed, out.attempted)
		}
		if err := checkNames(endToEnd, sp.EndToEnd); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if err := checkNames(perLayer, sp.PerLayer); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q", m.Name)
			}
		}
		for n, m := range endToEnd {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, n, m.Value)
			}
		}
		if perLayer["client.error_rate"].Value != 0 {
			t.Errorf("%s: error rate %v", w.name, perLayer["client.error_rate"].Value)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: span file: %v", w.name, err)
		}
	}
}

// TestCompare pins the quartiles to Python's statistics.quantiles and the
// three verdicts to their definitions.
func TestCompare(t *testing.T) {
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	dir := t.TempDir()
	write := func(file string, queryMs ...float64) string {
		path := filepath.Join(dir, file)
		for _, v := range queryMs {
			rec := record{Workload: "fig1_topk", result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"q": {v, "ms"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	sp := &spec{EndToEnd: []specMetric{{Name: "q", Unit: "ms", Better: "lower", Bound: 0.05}}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "fig1_topk"})
	base := write("a", 100, 101, 102, 103)
	for _, tc := range []struct {
		file    string
		values  []float64
		verdict string
	}{
		{"same", []float64{100, 102, 103, 104}, " ok"},
		{"slow", []float64{110, 111, 112, 113}, " worse"},
		{"wide", []float64{90, 100, 104, 120}, " unresolved"},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, sp, base, write(tc.file, tc.values...))
		if (err != nil) != (tc.verdict == " worse") {
			t.Errorf("%s: error %v", tc.file, err)
		}
		if !bytes.Contains(out.Bytes(), []byte(tc.verdict+"\n")) {
			t.Errorf("%s: want verdict%s in\n%s", tc.file, tc.verdict, out.String())
		}
	}
}
