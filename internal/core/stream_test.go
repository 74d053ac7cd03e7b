package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/realfmla"
	"repro/internal/sqlfront"
)

// TestMeasureSQLStreamMatchesSlice: the stream delivers exactly the slice
// API's candidates — same order, same tuples, bit-identical measures —
// with strictly consecutive indices, for every pool width.
func TestMeasureSQLStreamMatchesSlice(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{
		Seed: 5, Products: 120, Orders: 90, Market: 30, Segments: 10,
		NullRate: 0.3, MarketNullRate: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sqlfront.MustParse(`SELECT P.seg FROM Products P, Market M
		WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 8`)

	want, err := New(Options{Seed: 9}).MeasureSQL(q, d, 0.05, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Candidates) == 0 {
		t.Fatal("workload produced no candidates")
	}

	for _, pool := range []int{0, 1, 2} {
		var got []MeasuredCandidate
		next := 0
		info, err := New(Options{Seed: 9, PoolWorkers: pool}).MeasureSQLStream(context.Background(), q, d, 0.05, 0.25,
			func(idx int, c MeasuredCandidate) error {
				if idx != next {
					t.Fatalf("pool=%d: yield idx %d, want %d", pool, idx, next)
				}
				next++
				got = append(got, c)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if info.Count != len(want.Candidates) || info.Derivations != want.Derivations {
			t.Fatalf("pool=%d: info %d/%d, want %d/%d", pool,
				info.Count, info.Derivations, len(want.Candidates), want.Derivations)
		}
		if len(info.NullIDs) != len(want.NullIDs) {
			t.Fatalf("pool=%d: NullIDs len %d, want %d", pool, len(info.NullIDs), len(want.NullIDs))
		}
		if len(got) != len(want.Candidates) {
			t.Fatalf("pool=%d: streamed %d candidates, want %d", pool, len(got), len(want.Candidates))
		}
		for i, c := range got {
			w := want.Candidates[i]
			if !c.Tuple.Equal(w.Tuple) || !realfmla.Equal(c.Phi, w.Phi) {
				t.Fatalf("pool=%d: candidate %d diverged", pool, i)
			}
			if c.Measure.Value != w.Measure.Value || c.Measure.Method != w.Measure.Method ||
				c.Measure.Samples != w.Measure.Samples {
				t.Fatalf("pool=%d: candidate %d measure %+v, want %+v", pool, i, c.Measure, w.Measure)
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

	type entry func(ctx context.Context, e *Engine, yield func(int, MeasuredCandidate) error) error
	entries := map[string]entry{
		"MeasureSQLStream": func(ctx context.Context, e *Engine, yield func(int, MeasuredCandidate) error) error {
			_, err := e.MeasureSQLStream(ctx, q, d, 0.05, 0.25, yield)
			return err
		},
		"MeasureCandidatesStream": func(ctx context.Context, e *Engine, yield func(int, MeasuredCandidate) error) error {
			p, err := plan.Build(q, d, e.PlanOptions())
			if err != nil {
				return err
			}
			res, _, err := exec.Aggregate(p, d, e.ExecOptions(), nil)
			if err != nil {
				return err
			}
			if len(res.Candidates) < 400 {
				t.Fatalf("workload has %d candidates, want ≥ 400", len(res.Candidates))
			}
			_, err = e.MeasureCandidatesStream(ctx, res, p.Limit, 0.05, 0.25, yield)
			return err
		},
	}
	modes := []struct {
		name string
		want error
	}{
		{"yield-error", sentinel},
		{"cancel-in-yield", context.Canceled},
		{"pre-cancelled", context.Canceled},
	}
	for name, run := range entries {
		for _, mode := range modes {
			for _, pool := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/pool=%d", name, mode.name, pool), func(t *testing.T) {
					kc := NewKernels(0)
					eng := New(Options{Seed: 3, PoolWorkers: pool})
					eng.UseKernels(kc)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					if mode.name == "pre-cancelled" {
						cancel()
					}
					// yield is never called concurrently with itself, so the
					// counters need no lock of their own.
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
					if !errors.Is(err, mode.want) {
						t.Fatalf("err = %v, want %v", err, mode.want)
					}
					if mode.name == "pre-cancelled" {
						if calls != 0 {
							t.Fatalf("yield called %d times under a cancelled context", calls)
						}
					} else if calls <= failAt {
						t.Fatalf("yield called %d times, want > %d", calls, failAt)
					}
					if mode.name == "yield-error" && late != 0 {
						t.Fatalf("%d deliveries after the failed yield", late)
					}
					if after := kernelCount(kc) - atFail; after > pool {
						t.Fatalf("%d candidates measured after the run failed, want ≤ pool width %d", after, pool)
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
