package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/value"
)

// windowPlan says who runs in a window: the closed-loop reader, the
// open-loop writer, and beside the writer the checkpointer.
type windowPlan struct {
	dur                         time.Duration
	reader, writer, checkpoints bool
}

type insertObs struct {
	due time.Duration // offset of the batch's due time from the window start
	ms  float64       // acknowledgement − due time
}

type interval struct{ start, end time.Duration }

// segment is one fifth of a window as the reader lived it. It ends at the
// first response past its boundary, so its length and counts are exact.
// Every end-to-end number of a window is computed per segment and the
// median segment is reported: a stall of the machine that lasts a fraction
// of a second moves one segment, not the metric.
type segment struct {
	dur     time.Duration
	queryMs []float64 // latency of each correct measure response
	ops     int       // those, plus probes answered and batches acknowledged
	cpuMs   float64   // process CPU spent
}

const segmentsPerWindow = 5

// windowStats is what one window observed from outside the server.
type windowStats struct {
	dur time.Duration
	// queryMs holds the latency of every correct measure response, sorted.
	queryMs []float64
	// inserts holds every acknowledged batch in send order; insertMs is the
	// same latencies sorted, lateMs how late each send started.
	inserts  []insertObs
	insertMs []float64
	lateMs   []float64
	segments []segment
	// attempted counts queries, probes and inserts sent; failed those that
	// errored, were refused, or answered wrongly.
	attempted, failed       int
	busy429, unavailable503 int
	checkpoints             []interval
	// reads and writes count the requests each connection sent, readerDials
	// and writerDials the TCP connections it opened for them.
	reads, writes, readerDials, writerDials int64
}

// tally is the part of windowStats one goroutine fills.
type tally struct {
	attempted, failed       int
	busy429, unavailable503 int
	firstErr                error
}

func (t *tally) fail(err error) {
	t.failed++
	var se *client.ServerError
	if errors.As(err, &se) {
		switch se.Status {
		case http.StatusTooManyRequests:
			t.busy429++
		case http.StatusServiceUnavailable:
			t.unavailable503++
		}
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (s *windowStats) add(t tally, who string) {
	s.attempted += t.attempted
	s.failed += t.failed
	s.busy429 += t.busy429
	s.unavailable503 += t.unavailable503
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed, first: %v\n", who, t.failed, t.attempted, t.firstErr)
	}
}

// runWindow drives the instance for plan.dur and returns what the clients
// saw. The reader stops after the first response past the deadline, so no
// request is cut off.
func runWindow(in *instance, plan windowPlan) (*windowStats, error) {
	st := &windowStats{dur: plan.dur}
	ctx := context.Background()
	readerDials0, writerDials0 := in.reader.dials.Load(), in.writer.dials.Load()
	cpu0 := cpuMillis()
	start := time.Now()
	deadline := start.Add(plan.dur)

	var (
		wg         sync.WaitGroup
		lastAcked  atomic.Int64
		acked      atomic.Int64 // batches acknowledged in this window
		rt, wt, ct tally
		// feedDone is closed when the writer has sent its last batch.
		feedDone = make(chan struct{})
	)
	lastAcked.Store(-1)
	// static: no insert has landed or can land, so answers must match the
	// reference in every field.
	static := !plan.writer && in.nextBatch == 0
	if plan.reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				seg              segment
				segStart, segCPU = start, cpu0
				segAcked         int64
				every            = plan.dur / segmentsPerWindow
				boundary         = start.Add(every)
				endSegmentIfPast = func() {
					now := time.Now()
					if now.Before(boundary) {
						return
					}
					cpu, nowAcked := cpuMillis(), acked.Load()
					seg.dur, seg.cpuMs = now.Sub(segStart), cpu-segCPU
					seg.ops += int(nowAcked - segAcked)
					st.segments = append(st.segments, seg)
					seg, segStart, segCPU, segAcked = segment{}, now, cpu, nowAcked
					for !now.Before(boundary) {
						boundary = boundary.Add(every)
					}
				}
			)
			for n := 0; time.Now().Before(deadline); n++ {
				rt.attempted++
				if batch := lastAcked.Load(); plan.writer && n%probeEvery == probeEvery-1 && batch >= 0 {
					if err := in.probe(ctx, int(batch)); err != nil {
						rt.fail(err)
					} else {
						seg.ops++
					}
					endSegmentIfPast()
					continue
				}
				sql := in.texts[in.rng.Intn(len(in.texts))]
				t0 := time.Now()
				got, err := in.reader.MeasureSQL(ctx, sql, in.w.eps, delta)
				ms := millis(time.Since(t0))
				if err == nil {
					err = in.oracle.check(sql, got, static)
				}
				if err != nil {
					rt.fail(err)
				} else {
					seg.queryMs = append(seg.queryMs, ms)
					seg.ops++
				}
				endSegmentIfPast()
			}
		}()
	}
	if plan.writer {
		batches := int(plan.dur.Seconds() * feedRate)
		first := in.nextBatch
		in.nextBatch += batches
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(feedDone)
			for i := 0; i < batches; i++ {
				due := start.Add(time.Duration(i) * time.Second / feedRate)
				time.Sleep(time.Until(due))
				wt.attempted++
				late := time.Since(due)
				_, err := in.writer.Insert(ctx, "Market", in.feedBatch(first+i))
				if err != nil {
					wt.fail(err)
					continue
				}
				st.inserts = append(st.inserts, insertObs{due: due.Sub(start), ms: millis(time.Since(due))})
				st.lateMs = append(st.lateMs, millis(late))
				in.acked++
				acked.Add(1)
				lastAcked.Store(int64(first + i))
			}
		}()
	}
	if plan.checkpoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			every := plan.dur / checkpointsPerWindow
			for k := 1; k < checkpointsPerWindow; k++ {
				select {
				case <-feedDone:
					return
				case <-time.After(time.Until(start.Add(time.Duration(k) * every))):
				}
				t0 := time.Since(start)
				if err := in.store.Checkpoint(); err != nil {
					ct.fail(fmt.Errorf("checkpoint: %w", err))
					continue
				}
				st.checkpoints = append(st.checkpoints, interval{t0, time.Since(start)})
			}
		}()
	}
	wg.Wait()
	st.add(rt, "reader")
	st.add(wt, "writer")
	st.add(ct, "checkpointer")
	st.reads, st.writes = int64(rt.attempted), int64(wt.attempted)
	st.readerDials = in.reader.dials.Load() - readerDials0
	st.writerDials = in.writer.dials.Load() - writerDials0
	for _, g := range st.segments {
		st.queryMs = append(st.queryMs, g.queryMs...)
	}
	sort.Float64s(st.queryMs)
	for _, o := range st.inserts {
		st.insertMs = append(st.insertMs, o.ms)
	}
	sort.Float64s(st.insertMs)
	sort.Float64s(st.lateMs)
	if plan.reader && len(st.segments) == 0 || plan.writer && len(st.insertMs) == 0 {
		return nil, errors.New("window completed no operation")
	}
	return st, nil
}

// probe is the read-your-writes check: the last acknowledged batch must be
// visible to a query admitted after its acknowledgement.
func (in *instance) probe(ctx context.Context, batch int) error {
	got, err := in.reader.MeasureSQL(ctx, probeSQL(batch), in.w.eps, delta)
	if err != nil {
		return err
	}
	if got.Count < 1 {
		return fmt.Errorf("read-your-writes: acknowledged batch %d is not visible", batch)
	}
	return nil
}

// feedBatch builds batch i: 8 Market rows of a segment no other row uses.
// The first rrp is always a fresh numerical null, so that the batch always
// yields a candidate for the probe; the others are null half the time.
func (in *instance) feedBatch(i int) []value.Tuple {
	rows := make([]value.Tuple, batchRows)
	for r := range rows {
		rrp := value.Num(1 + 199*in.feedRNG.Float64())
		if r == 0 || in.feedRNG.Intn(2) == 0 {
			rrp = value.NullNum(in.nextNull)
			in.nextNull++
		}
		rows[r] = value.Tuple{value.Base(feedSegment(i)), rrp, value.Num(0.5 + 0.5*in.feedRNG.Float64())}
	}
	return rows
}

// stallRatio is the median insert latency of batches due while a
// checkpoint ran over the median of the others.
func (s *windowStats) stallRatio() float64 {
	var during, outside []float64
	for _, o := range s.inserts {
		in := false
		for _, c := range s.checkpoints {
			in = in || o.due >= c.start && o.due < c.end
		}
		if in {
			during = append(during, o.ms)
		} else {
			outside = append(outside, o.ms)
		}
	}
	if len(during) == 0 || len(outside) == 0 {
		return 0
	}
	return median(during) / median(outside)
}

// overSegments is the median over the segments that saw anything of the
// p-th percentile of each segment's latencies.
func overSegments(segs [][]float64, p float64) float64 {
	var v []float64
	for _, ms := range segs {
		if len(ms) > 0 {
			sort.Float64s(ms)
			v = append(v, percentile(ms, p))
		}
	}
	return median(v)
}

func (s *windowStats) queryPercentile(p float64) float64 {
	segs := make([][]float64, len(s.segments))
	for i, g := range s.segments {
		segs[i] = g.queryMs
	}
	return overSegments(segs, p)
}

// insertPercentile counts a batch in the segment its due time falls in.
func (s *windowStats) insertPercentile(p float64) float64 {
	segs := make([][]float64, segmentsPerWindow)
	for _, o := range s.inserts {
		i := min(int(o.due*segmentsPerWindow/s.dur), segmentsPerWindow-1)
		segs[i] = append(segs[i], o.ms)
	}
	return overSegments(segs, p)
}

func (s *windowStats) queriesPerSecond() float64 {
	var v []float64
	for _, g := range s.segments {
		v = append(v, float64(len(g.queryMs))/g.dur.Seconds())
	}
	return median(v)
}

func (s *windowStats) cpuMsPerOp() float64 {
	var v []float64
	for _, g := range s.segments {
		if g.ops > 0 {
			v = append(v, g.cpuMs/float64(g.ops))
		}
	}
	return median(v)
}
