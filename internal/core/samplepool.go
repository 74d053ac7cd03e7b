package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mc"
)

// samplePool is the engine's persistent crew of sampling helpers: the
// parallel AFPRAS loop used to spawn Options.Workers goroutines (plus
// their closures and coordination state) on every MeasureFormula call,
// which made allocs/op grow linearly with the worker count — 21 → 97 →
// 127 for 1 → 2 → 4 workers on the Figure 1a workload. The pool starts
// the helper goroutines once per engine and reuses one parJob, so the
// steady-state parallel path allocates exactly as much as the sequential
// one: nothing.
//
// Helpers block on a buffered token channel. A run publishes its
// parameters in the shared parJob, enqueues one token per recruited
// helper, and works the job itself; helpers and submitter atomically
// claim fixed-size chunks, so participation order cannot change the
// result (chunks are seeded by index — see sampleAsym). The token send
// happens-before the helper's reads of the job fields, and wg.Wait
// happens-after its last write, so the unguarded job fields are
// race-free. Every run consumes exactly the tokens it enqueued before
// returning, so runs never observe each other.
//
// The pool holds no reference to the Engine, and a cleanup registered on
// the engine closes stop when the engine becomes unreachable, so pooled
// helpers never outlive their engine.
type samplePool struct {
	tokens chan struct{}
	stop   chan struct{}
	job    parJob
}

// parJob is the shared state of one parallel sampling run. first/chunks
// bound the claimed chunk range [first, chunks): a full-budget run covers
// [0, ⌈m/asymChunkSize⌉), while the adaptive race resumes a candidate
// from its last drawn chunk (see sampleAsymRange).
type parJob struct {
	samplers  []*asymSampler
	m, chunks int
	first     int
	base      int64
	slot      atomic.Int64 // sampler slot assignment; the submitter owns slot 0
	next      atomic.Int64 // chunk claim counter
	total     atomic.Int64 // accumulated hits
	wg        sync.WaitGroup
}

// run claims chunks until none remain, accumulating hits into the job.
func (j *parJob) run(s *asymSampler) {
	hits := 0
	for {
		ch := j.first + int(j.next.Add(1)) - 1
		if ch >= j.chunks {
			break
		}
		hits += s.chunk(mc.DeriveSeed(j.base, int64(ch)), chunkLen(j.m, ch))
	}
	j.total.Add(int64(hits))
}

func newSamplePool(helpers int) *samplePool {
	p := &samplePool{
		tokens: make(chan struct{}, helpers),
		stop:   make(chan struct{}),
	}
	for i := 0; i < helpers; i++ {
		go p.helper()
	}
	return p
}

func (p *samplePool) helper() {
	for {
		select {
		case <-p.stop:
			return
		case <-p.tokens:
			j := &p.job
			j.run(j.samplers[int(j.slot.Add(1))])
			j.wg.Done()
		}
	}
}

// samplePoolFor returns the engine's helper pool with at least `helpers`
// helper goroutines, starting it on first use.
func (e *Engine) samplePoolFor(helpers int) *samplePool {
	if e.pool == nil {
		e.pool = newSamplePool(helpers)
		// Stop the helpers when the engine is collected; the cleanup must
		// not reference e itself, only the stop channel.
		runtime.AddCleanup(e, func(stop chan struct{}) { close(stop) }, e.pool.stop)
	}
	return e.pool
}

// runParallel samples the Gaussian-direction chunks [from, to) of an
// m-sample budget over the entry's compiled formula with `workers`
// participants (the calling goroutine plus workers-1 pooled helpers),
// returning the total hit count. Allocation-free in steady state.
func (e *Engine) runParallel(ent *compiledEntry, workers, m, from, to int, base int64) int {
	p := e.samplePoolFor(e.workers() - 1)
	j := &p.job
	j.samplers = ent.samplerPool(workers)
	j.m, j.first, j.chunks, j.base = m, from, to, base
	j.slot.Store(0)
	j.next.Store(0)
	j.total.Store(0)
	recruits := workers - 1
	j.wg.Add(recruits)
	for i := 0; i < recruits; i++ {
		p.tokens <- struct{}{}
	}
	j.run(j.samplers[0])
	j.wg.Wait()
	// The engine must stay reachable until every helper is done: its
	// cleanup closes the pool's stop channel, and a helper stopping with
	// an unconsumed token would strand wg.Wait.
	runtime.KeepAlive(e)
	return int(j.total.Load())
}
