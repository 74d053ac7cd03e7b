package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlast"
)

// MeasureSQLStream runs a query against the sharded store through the
// scatter-gather coordinator and streams measured candidates to yield
// in candidate order — the same contract as core.Engine.MeasureSQLStream,
// with bit-identical results: the sequence of (idx, candidate) pairs,
// measures included, is exactly what the engine would deliver over an
// unsharded database holding the same rows in the same insert order.
//
// Single-relation plans scatter: every shard enumerates its own rows in
// parallel on its own executor, emitting derivation streams that the
// coordinator merges back into the global derivation order with a
// frontier walk over the routing log. Per-shard constraint formulas are
// built directly in the global formula-variable indexing (the plans are
// rebased onto the union null inventory), so the merged candidates are
// bit-identical to single-store enumeration. Multi-relation (join)
// plans enumerate over the gathered snapshot instead — join derivations
// combine rows across shards, so their enumeration is inherently
// global — and measurement still fans out per candidate either way,
// through the engine's race / pool paths with global candidate indices
// (the MeasureBatch seeding contract: that is what makes the scattered
// measures bit-stable).
//
// The engine carries the caller's toggles and compiled-kernel cache and
// must not be used concurrently, exactly as with its own methods.
func (st *Store) MeasureSQLStream(ctx context.Context, eng *core.Engine, q *sqlast.Query, eps, delta float64, yield func(idx int, c core.MeasuredCandidate) error) (*core.SQLStreamInfo, error) {
	if err := core.ValidateEpsDelta(eps, delta); err != nil {
		return nil, err
	}
	v := st.snapshotView()
	plans := make([]*plan.Plan, len(v.shards))
	for s, d := range v.shards {
		p, err := plan.Build(q, d, eng.PlanOptions())
		if err != nil {
			return nil, err
		}
		plans[s] = p
	}
	if len(plans[0].Steps) != 1 {
		// Join plans combine rows across shards; enumerate them over the
		// gathered snapshot (measurement still fans out per candidate).
		g, err := st.gatherView(v)
		if err != nil {
			return nil, err
		}
		return eng.MeasureSQLStream(ctx, q, g, eps, delta, yield)
	}
	res, err := st.scatterEnumerate(ctx, eng, v, plans)
	if err != nil {
		return nil, err
	}
	return eng.MeasureCandidatesStream(ctx, res, plans[0].Limit, eps, delta, yield)
}

// MeasureSQL is the buffered form of MeasureSQLStream, through the same
// collector as core.Engine.MeasureSQL.
func (st *Store) MeasureSQL(ctx context.Context, eng *core.Engine, q *sqlast.Query, eps, delta float64) (*core.SQLMeasured, error) {
	return core.CollectSQL(func(yield func(int, core.MeasuredCandidate) error) (*core.SQLStreamInfo, error) {
		return st.MeasureSQLStream(ctx, eng, q, eps, delta, yield)
	})
}

// gatherView is Gather over an already-captured view (so the join path
// and the caller's plan building agree on one consistent cut); it
// shares the store's per-version cache.
func (st *Store) gatherView(v view) (*db.Database, error) {
	st.mu.RLock()
	if st.gathered != nil && st.gatheredAt == v.version {
		g := st.gathered
		st.mu.RUnlock()
		return g, nil
	}
	st.mu.RUnlock()
	return st.Gather()
}

// unionNullIndex merges the shards' numerical-null inventories into the
// global formula-variable indexing: ascending null IDs, position =
// variable index — exactly db.NumNullIndex of the merged database.
func unionNullIndex(shards []*db.Database) ([]int, map[int]int) {
	heads := make([][]int, len(shards))
	for s, d := range shards {
		heads[s] = d.NumNulls()
	}
	var ids []int
	for {
		best, ok := 0, false
		for _, h := range heads {
			if len(h) == 0 {
				continue
			}
			if !ok || h[0] < best {
				best, ok = h[0], true
			}
		}
		if !ok {
			break
		}
		ids = append(ids, best)
		for s, h := range heads {
			if len(h) > 0 && h[0] == best {
				heads[s] = h[1:]
			}
		}
	}
	index := make(map[int]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	return ids, index
}

// scatterEnumerate fans a single-relation plan out to per-shard
// executors and merges their derivation streams back into the global
// derivation order, aggregating them into the exact candidate set the
// single-store pipeline would produce.
//
// The merge is a frontier walk over the routing log: global derivation
// order on a scan is global row order, each shard's stream arrives in
// its local row order (a subsequence of the global order), and the log
// says which shard owns each global position — so the walk advances one
// global row at a time, consuming a shard's next derivation exactly
// when the log hands that shard the current position.
func (st *Store) scatterEnumerate(ctx context.Context, eng *core.Engine, v view, plans []*plan.Plan) (*exec.Result, error) {
	nullIDs, index := unionNullIndex(v.shards)
	rel := plans[0].Steps[0].Relation
	limit := plans[0].Limit
	n := len(v.shards)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	eo := eng.ExecOptions()
	eo.TrackRows = true // the merge needs each derivation's row ordinal

	chans := make([]chan *exec.Deriv, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		// Rebase the shard's plan onto the global formula-variable
		// indexing: constraint atoms then materialize with the merged
		// ambient dimension and variable positions, bit-identical to
		// single-store enumeration. The shard enumerates without the
		// LIMIT — first-k-distinct and top-k are global notions, applied
		// by the coordinator's aggregation and the race respectively.
		p := *plans[s]
		p.NullIDs, p.Index, p.K = nullIDs, index, len(nullIDs)
		p.Limit = 0
		ch := make(chan *exec.Deriv, 128)
		chans[s] = ch
		wg.Add(1)
		go func(s int, p plan.Plan) {
			defer wg.Done()
			defer close(ch)
			errs[s] = exec.Run(&p, v.shards[s], eo, func(dv *exec.Deriv) error {
				select {
				case ch <- dv:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
		}(s, p)
	}

	// The race path aggregates the whole field (the ranking must see
	// every candidate); the fixed paths apply the LIMIT during
	// aggregation, exactly like the single-store pipelines.
	aggLimit := limit
	if eng.RaceApplies(limit) {
		aggLimit = 0
	}
	agg := exec.NewAggregator(aggLimit, nil)
	res := &exec.Result{NullIDs: nullIDs, Index: index}

	order := v.order[rel]
	heads := make([]*exec.Deriv, n)
	done := make([]bool, n)
	next := make([]int, n)
	var walkErr error
walk:
	for _, s := range order {
		local := next[s]
		next[s]++
		for heads[s] == nil && !done[s] {
			dv, ok := <-chans[s]
			if !ok {
				done[s] = true
				break
			}
			heads[s] = dv
		}
		if heads[s] != nil && heads[s].Rows[0] == local {
			res.Derivations++
			agg.Add(heads[s])
			heads[s] = nil
		}
		if res.Derivations%4096 == 0 {
			if err := ctx.Err(); err != nil {
				walkErr = err
				break walk
			}
		}
	}
	cancel() // unblock any shard still pushing (only on early exit)
	wg.Wait()
	if walkErr != nil {
		return nil, walkErr
	}
	for s, err := range errs {
		if err != nil {
			if ctx.Err() != nil && err == context.Canceled {
				err = ctx.Err()
			}
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	res.Candidates = agg.Finish()
	return res, nil
}
