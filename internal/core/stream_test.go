package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/realfmla"
	"repro/internal/sqlfront"
)

// TestMeasureSQLStreamMatchesSlice: every entry point of the measurement
// pipeline delivers the same candidates — same order, same tuples,
// bit-identical measures, consecutive indices, same run summary — with
// and without a LIMIT, on the race and on the fixed budget, for every
// pool width.
func TestMeasureSQLStreamMatchesSlice(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 5, Products: 120, Orders: 90, Market: 30, Segments: 10,
		NullRate: 0.3, MarketNullRate: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const join = `SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis`
	const eps, delta = 0.05, 0.25

	// stream adapts a streaming entry point to the slice form, checking
	// that indices are consecutive on the way.
	stream := func(t *testing.T, run func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error)) *SQLMeasured {
		next := 0
		got, err := collectSQL(func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error) {
			info, err := run(func(idx int, c MeasuredCandidate) error {
				if idx != next {
					t.Errorf("yield idx %d, want %d", idx, next)
				}
				next++
				return yield(idx, c)
			})
			if err == nil && info.Count != next {
				t.Errorf("info.Count = %d after %d deliveries", info.Count, next)
			}
			return info, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	for _, sql := range []string{join + " LIMIT 8", join} {
		q := sqlfront.MustParse(sql)
		for _, noAdaptive := range []bool{false, true} {
			want, err := New(Options{Seed: 9, PoolWorkers: 1, NoAdaptive: noAdaptive}).MeasureSQL(q, d, eps, delta)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Candidates) == 0 {
				t.Fatal("workload produced no candidates")
			}
			raced := q.Limit > 0 && !noAdaptive
			if (want.Rounds > 0) != raced {
				t.Fatalf("limit=%d noAdaptive=%v: %d race rounds", q.Limit, noAdaptive, want.Rounds)
			}
			for _, pool := range []int{0, 1, 2, 4} {
				opts := Options{Seed: 9, PoolWorkers: pool, NoAdaptive: noAdaptive}
				entries := map[string]func(t *testing.T) *SQLMeasured{
					"MeasureSQL": func(t *testing.T) *SQLMeasured {
						got, err := New(opts).MeasureSQL(q, d, eps, delta)
						if err != nil {
							t.Fatal(err)
						}
						return got
					},
					"MeasureSQLStream": func(t *testing.T) *SQLMeasured {
						return stream(t, func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error) {
							return New(opts).MeasureSQLStream(context.Background(), q, d, eps, delta, yield)
						})
					},
					"MeasureCandidatesStream": func(t *testing.T) *SQLMeasured {
						e := New(opts)
						p, err := plan.Build(q, d, e.PlanOptions())
						if err != nil {
							t.Fatal(err)
						}
						field := *p
						if e.RaceApplies(p.Limit) {
							field.Limit = 0 // the MeasureCandidatesStream contract: the race ranks the whole field
						}
						res, _, err := exec.Aggregate(&field, d, e.ExecOptions(), nil)
						if err != nil {
							t.Fatal(err)
						}
						return stream(t, func(yield func(int, MeasuredCandidate) error) (*SQLStreamInfo, error) {
							return e.MeasureCandidatesStream(context.Background(), res, p.Limit, eps, delta, yield)
						})
					},
				}
				if !raced {
					// MeasureBatch is the fixed budget over a formula list; the
					// race's winners are not indexed by their position in it.
					entries["MeasureBatch"] = func(t *testing.T) *SQLMeasured {
						phis := make([]realfmla.Formula, len(want.Candidates))
						for i, c := range want.Candidates {
							phis[i] = c.Phi
						}
						results, errs := MeasureBatch(opts, phis, eps, delta)
						got := *want
						got.Candidates = make([]MeasuredCandidate, len(phis))
						for i, c := range want.Candidates {
							if errs[i] != nil {
								t.Fatal(errs[i])
							}
							got.Candidates[i] = MeasuredCandidate{Tuple: c.Tuple, Phi: c.Phi, Measure: results[i]}
						}
						return &got
					}
				}
				for name, entry := range entries {
					t.Run(fmt.Sprintf("limit=%d/noAdaptive=%v/pool=%d/%s", q.Limit, noAdaptive, pool, name), func(t *testing.T) {
						got := entry(t)
						if got.Derivations != want.Derivations || got.SamplesDrawn != want.SamplesDrawn ||
							got.Rounds != want.Rounds || !slices.Equal(got.NullIDs, want.NullIDs) {
							t.Fatalf("summary %d/%d/%d/%v, want %d/%d/%d/%v",
								got.Derivations, got.SamplesDrawn, got.Rounds, got.NullIDs,
								want.Derivations, want.SamplesDrawn, want.Rounds, want.NullIDs)
						}
						if len(got.Candidates) != len(want.Candidates) {
							t.Fatalf("%d candidates, want %d", len(got.Candidates), len(want.Candidates))
						}
						for i, c := range got.Candidates {
							w := want.Candidates[i]
							if !c.Tuple.Equal(w.Tuple) || !realfmla.Equal(c.Phi, w.Phi) {
								t.Fatalf("candidate %d diverged", i)
							}
							g, m := c.Measure, w.Measure
							if math.Float64bits(g.Value) != math.Float64bits(m.Value) || g.Method != m.Method ||
								g.Samples != m.Samples || g.SamplesDrawn != m.SamplesDrawn || g.Rounds != m.Rounds {
								t.Fatalf("candidate %d measure %+v, want %+v", i, g, m)
							}
						}
					})
				}
			}
		}
	}
}

// kernelCount is the number of formulas compiled into kc so far — one
// per distinct candidate constraint MeasureFormula has been called on,
// which is how the error-policy table counts measurement work without a
// clock.
func kernelCount(kc *Kernels) int {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	return len(kc.m)
}

// TestMeasureSQLStreamYieldError: the first error of a run — a failed
// yield, or a ctx cancelled before the run or from inside yield — stops
// it, for every pool width and both entry points: the error is returned,
// delivery stops, and at most pool-width further candidates are measured
// (each worker may finish the one it holds) instead of the rest of the
// field.
func TestMeasureSQLStreamYieldError(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 8, Products: 400, Orders: 40, Market: 30, Segments: 10,
		NullRate: 0.3, MarketNullRate: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(`SELECT P.id FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis`)
	const failAt = 3
	sentinel := errors.New("client went away")

	build := func(e *Engine) *plan.Plan {
		p, err := plan.Build(q, d, e.PlanOptions())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	aggregate := func(e *Engine) *exec.Result {
		res, _, err := exec.Aggregate(build(e), d, e.ExecOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Candidates) < 400 {
			t.Fatalf("workload has %d candidates, want ≥ 400", len(res.Candidates))
		}
		return res
	}
	// A reference run says which candidates are decided without sampling:
	// the measure-error rows fail every sampled one.
	ref, err := New(Options{Seed: 3}).MeasureSQL(q, d, 0.05, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	unsampled := 0
	for _, c := range ref.Candidates {
		if c.Measure.Samples == 0 {
			unsampled++
		}
	}

	type yieldFunc = func(int, MeasuredCandidate) error
	// Each entry point, and the source it hands the pipeline. No input
	// that passes the entry points' validation makes MeasureFormula fail,
	// so the measure-error rows run the pipeline over the source directly
	// with an eps that fails every sampled candidate.
	entries := map[string]struct {
		stream func(ctx context.Context, e *Engine, yield yieldFunc) error
		source func(e *Engine) candidateSource
	}{
		"MeasureSQLStream": {
			func(ctx context.Context, e *Engine, yield yieldFunc) error {
				_, err := e.MeasureSQLStream(ctx, q, d, 0.05, 0.25, yield)
				return err
			},
			func(e *Engine) candidateSource { return e.fusedSource(build(e), d) },
		},
		"MeasureCandidatesStream": {
			func(ctx context.Context, e *Engine, yield yieldFunc) error {
				_, err := e.MeasureCandidatesStream(ctx, aggregate(e), 0, 0.05, 0.25, yield)
				return err
			},
			func(e *Engine) candidateSource { return finishedSource(aggregate(e)) },
		},
	}
	const badEps = 2
	modes := []struct {
		name string
		want error
	}{
		{"yield-error", sentinel},
		{"cancel-in-yield", context.Canceled},
		{"pre-cancelled", context.Canceled},
		{"measure-error", ValidateEps(badEps)},
	}
	for name, ent := range entries {
		for _, mode := range modes {
			for _, pool := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/pool=%d", name, mode.name, pool), func(t *testing.T) {
					kc := NewKernels(0)
					eng := New(Options{Seed: 3, PoolWorkers: pool})
					eng.UseKernels(kc)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					run, budget := ent.stream, pool
					switch mode.name {
					case "pre-cancelled":
						cancel()
					case "measure-error":
						run = func(ctx context.Context, e *Engine, yield yieldFunc) error {
							_, err := e.measureCandidates(ctx, ent.source(e), 0, badEps, 0.25, yield)
							return err
						}
						// No sampled candidate completes, and each worker can
						// hold only one when the first of them fails.
						budget += unsampled
					}
					// yield runs on this goroutine only, so the counters need
					// no lock.
					calls, late, atFail := 0, 0, 0
					err := run(ctx, eng, func(idx int, c MeasuredCandidate) error {
						calls++
						switch {
						case idx > failAt:
							late++
						case idx == failAt:
							atFail = kernelCount(kc)
							if mode.name == "cancel-in-yield" {
								cancel()
								return nil
							}
							return sentinel
						}
						return nil
					})
					if err == nil || (!errors.Is(err, mode.want) && err.Error() != mode.want.Error()) {
						t.Fatalf("err = %v, want %v", err, mode.want)
					}
					switch mode.name {
					case "pre-cancelled":
						if calls != 0 {
							t.Fatalf("yield called %d times under a cancelled context", calls)
						}
					case "measure-error":
						if c := ref.Candidates[calls]; c.Measure.Samples == 0 {
							t.Fatalf("delivery stopped at %d, before a sampled candidate", calls)
						}
					default:
						if calls <= failAt {
							t.Fatalf("yield called %d times, want > %d", calls, failAt)
						}
					}
					if mode.name == "yield-error" && late != 0 {
						t.Fatalf("%d deliveries after the failed yield", late)
					}
					if after := kernelCount(kc) - atFail; after > budget {
						t.Fatalf("%d candidates measured after the run failed, want ≤ %d", after, budget)
					}
				})
			}
		}
	}
}

// TestMeasureSQLStreamCancel: cancelling the context mid-stream skips
// remaining measurements and surfaces ctx.Err().
func TestMeasureSQLStreamCancel(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 8, Products: 60, Orders: 40, Market: 20, Segments: 6, NullRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(`SELECT P.seg FROM Products P, Market M WHERE P.seg = M.seg`)

	// Cancelled up front: no candidate is ever delivered.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = New(Options{Seed: 3}).MeasureSQLStream(cancelled, q, d, 0.05, 0.25,
		func(int, MeasuredCandidate) error {
			t.Error("yield called under a cancelled context")
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancelled from yield: delivery stops and the context error wins the
	// race against further measurement work.
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	_, err = New(Options{Seed: 3}).MeasureSQLStream(ctx, q, d, 0.05, 0.25,
		func(idx int, c MeasuredCandidate) error {
			cancelMid()
			return nil
		})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
}

// TestMeasureSQLStreamBadParams: validation mirrors MeasureSQL.
func TestMeasureSQLStreamBadParams(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{Seed: 1, Products: 5, Orders: 5, Market: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(`SELECT P.id FROM Products P`)
	nop := func(int, MeasuredCandidate) error { return nil }
	if _, err := New(Options{}).MeasureSQLStream(context.Background(), q, d, 0, 0.5, nop); err == nil {
		t.Error("accepted eps=0")
	}
	bad := sqlfront.MustParse(`SELECT P.id FROM Products P`)
	bad.From[0].Relation = "Nope"
	if _, err := New(Options{}).MeasureSQLStream(context.Background(), bad, d, 0.1, 0.1, nop); err == nil {
		t.Error("accepted unknown relation")
	}
}

// TestSharedKernelsAcrossEngines: independent engines given one Kernels
// produce bit-identical results to engines without sharing (compilation
// is pure), and the cache is safe under concurrent request engines.
func TestSharedKernelsAcrossEngines(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 8, Products: 60, Orders: 40, Market: 20, Segments: 6, NullRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(`SELECT P.id FROM Products P WHERE P.rrp * P.dis > 50 LIMIT 5`)
	want, err := New(Options{Seed: 3}).MeasureSQL(q, d, 0.05, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKernels(0)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := New(Options{Seed: 3})
			eng.UseKernels(kc)
			got, err := eng.MeasureSQL(q, d, 0.05, 0.25)
			if err != nil {
				errCh <- err
				return
			}
			for i := range got.Candidates {
				if got.Candidates[i].Measure.Value != want.Candidates[i].Measure.Value {
					errCh <- errors.New("shared kernels changed a measure")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
