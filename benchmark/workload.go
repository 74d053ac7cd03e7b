package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/datagen"
)

// config sizes one run. fullConfig is what the command line runs; the
// smoke test shrinks everything but the code paths.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	// setupReps is how many times set-up is repeated at least; setup_s is
	// the median. A set-up shorter than a second is repeated further, up to
	// three times as often, while all of them together stay under
	// setupBudget. recoveries and recoveryBudget do the same for reopening
	// the crash image.
	setupReps   int
	setupBudget time.Duration
	// feedTail is the length of the write-only feed the read-only workloads
	// run after their window, so that every workload prices inserts and a
	// restart (see README.md, "One metric list for four workloads").
	feedTail       time.Duration
	recoveries     int
	recoveryBudget time.Duration
	// layerScale divides the layer pass's iteration counts and dbScale the
	// generated databases; both are 1 outside the smoke test.
	layerScale, dbScale int
	outDir              string
}

func fullConfig(seed int64, window time.Duration, trace bool) config {
	cfg := config{
		seed: seed, window: window, trace: trace,
		setupReps: 3, setupBudget: 3 * time.Second, recoveries: 7, recoveryBudget: 1500 * time.Millisecond,
		feedTail: 4 * time.Second, layerScale: 1, dbScale: 1,
		outDir: filepath.Join("benchmark", "out"),
	}
	if trace {
		// setup_s is an end-to-end metric; the traced run sets up once.
		cfg.setupReps, cfg.setupBudget = 1, 0
	}
	return cfg
}

// repeatAgain says whether repetition i (from 0) of a timed step should
// run: always up to atLeast, then up to three times that while the
// repetitions so far fit the budget. Short steps are the noisy ones.
func repeatAgain(i, atLeast int, began time.Time, budget time.Duration) bool {
	return i < atLeast || i < 3*atLeast && time.Since(began) < budget
}

// delta is the failure probability every request asks for.
const delta = 0.05

const (
	// feedRate and batchRows fix the open-loop writer: 200 batches a second
	// of 8 Market rows each.
	feedRate  = 200
	batchRows = 8
	// probeEvery makes every 16th read of ingest_mixed a read-your-writes
	// probe on the last acknowledged batch.
	probeEvery = 16
	// checkpointsPerWindow spaces Store.Checkpoint calls so that four
	// complete inside a feed (every 4 s of the 20 s window).
	checkpointsPerWindow = 5
)

// workload is one traffic mix. Every workload serves a durable store the
// way `arithdbd -data-dir` does and reads through one closed-loop client.
type workload struct {
	name string
	gen  datagen.Config
	eps  float64
	// texts builds the distinct request texts; the reader draws from them
	// uniformly with the seeded generator.
	texts func(rng *rand.Rand, gen datagen.Config) []string
	// feed runs the open-loop writer beside the reader for the whole window.
	feed bool
	// layerReqs is how many requests of the workload's own sequence the
	// layer pass replays through every layer: fixed, so counts repeat.
	layerReqs int
}

var (
	figure1DB = datagen.Config{Products: 20000, Orders: 16000, Market: 4000, Segments: 2000, NullRate: 0.1, MarketNullRate: 0.5}
	smallDB   = datagen.Config{Products: 2000, Orders: 1600, Market: 400, Segments: 200, NullRate: 0.1, MarketNullRate: 0.5}
)

// sweepSQL is Competitive Advantage without its LIMIT: every candidate
// draws the full Hoeffding budget, none races.
var sweepSQL = strings.TrimSpace(datagen.CompetitiveAdvantage[:strings.Index(datagen.CompetitiveAdvantage, "LIMIT")])

const lookupPool = 256

func lookupSQL(seg string) string {
	return "SELECT P.id FROM Products P, Market M WHERE P.seg = '" + seg +
		"' AND P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 10"
}

func probeSQL(batch int) string {
	return fmt.Sprintf("SELECT M.seg FROM Market M WHERE M.seg = '%s' AND M.rrp * M.dis <= 50 LIMIT 10", feedSegment(batch))
}

func feedSegment(batch int) string { return fmt.Sprintf("iseg%d", batch) }

func oneText(sql string) func(*rand.Rand, datagen.Config) []string {
	return func(*rand.Rand, datagen.Config) []string { return []string{sql} }
}

func lookupTexts(rng *rand.Rand, gen datagen.Config) []string {
	segs := rng.Perm(gen.Segments)[:min(lookupPool, gen.Segments)]
	sort.Ints(segs)
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = lookupSQL(fmt.Sprintf("seg%d", s))
	}
	return out
}

var workloads = []workload{
	{name: "fig1_topk", gen: figure1DB, eps: 0.05, layerReqs: 2,
		texts: oneText(strings.TrimSpace(datagen.CompetitiveAdvantage))},
	{name: "sample_sweep", gen: smallDB, eps: 0.02, layerReqs: 5,
		texts: oneText(sweepSQL)},
	{name: "point_lookup", gen: figure1DB, eps: 0.05, layerReqs: 128,
		texts: lookupTexts},
	{name: "ingest_mixed", gen: figure1DB, eps: 0.05, layerReqs: 128,
		texts: lookupTexts, feed: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is what one run found: the operation counts, the end-to-end
// metrics and, from a traced run, the per-layer ones with the one-line
// account of where a request's time goes.
type outcome struct {
	attempted, failed  int
	endToEnd, perLayer map[string]metric
	breakdown          string
}

// runWorkload is one run: set-up (repeated, the last one is kept), the
// measured window, the feed tail where the window had no writer, the crash
// image and its recoveries, and with cfg.trace the layer pass.
func runWorkload(w workload, cfg config) (*outcome, error) {
	var (
		in     *instance
		setups []float64
		err    error
	)
	began := time.Now()
	for i := 0; repeatAgain(i, cfg.setupReps, began, cfg.setupBudget); i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		if in, err = setup(w, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.close()

	win, err := runWindow(in, windowPlan{dur: cfg.window, reader: true, writer: w.feed, checkpoints: w.feed})
	if err != nil {
		return nil, err
	}
	// feed is the window that carried the writer: the measured one, or the
	// write-only tail after a read-only window.
	feed := win
	out := &outcome{attempted: win.attempted, failed: win.failed}
	if !w.feed {
		if feed, err = runWindow(in, windowPlan{dur: cfg.feedTail, writer: true}); err != nil {
			return nil, err
		}
		out.attempted += feed.attempted
		out.failed += feed.failed
	}
	img, err := in.takeCrashImage()
	if err != nil {
		return nil, err
	}
	var (
		ckptMs    []float64
		ckptBytes int64
	)
	if cfg.trace {
		if ckptMs, ckptBytes, err = in.checkpointCost(feed); err != nil {
			return nil, err
		}
	}
	if err := in.close(); err != nil {
		return nil, err
	}
	rec, err := img.reopen(cfg)
	if err != nil {
		return nil, err
	}
	out.attempted += rec.attempted
	out.failed += rec.failed
	out.endToEnd = endToEndMetrics(setups, win, feed)
	if !cfg.trace {
		return out, nil
	}
	out.perLayer = windowLayerMetrics(out, win, feed, rec, img.logBytes, ckptMs, ckptBytes)
	if out.breakdown, err = layerPass(out.perLayer, w, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

func endToEndMetrics(setups []float64, win, feed *windowStats) map[string]metric {
	m := map[string]metric{}
	m["setup_s"] = metric{median(setups), "s"}
	m["queries_per_s"] = metric{win.queriesPerSecond(), "1/s"}
	m["query_p50_ms"] = metric{win.queryPercentile(50), "ms"}
	m["query_p90_ms"] = metric{win.queryPercentile(90), "ms"}
	m["insert_p50_ms"] = metric{feed.insertPercentile(50), "ms"}
	m["insert_p90_ms"] = metric{feed.insertPercentile(90), "ms"}
	m["cpu_ms_per_op"] = metric{win.cpuMsPerOp(), "ms"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return m
}
