package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/server"
	"repro/internal/wal"
)

// engineOptions is what `arithdbd` hands the server by default: seed 1,
// adaptive race on, kernel cache and MaxInflight at their defaults.
// servedOptions is what a request's engine then runs with: the server
// divides GOMAXPROCS by MaxInflight, which leaves one pool worker.
var (
	engineOptions = core.Options{Seed: 1}
	servedOptions = core.Options{Seed: 1, PoolWorkers: 1}
)

// instance is one served database: the durable store in a directory of
// its own, the server on a loopback listener, and the clients that reach
// it the way the arithdb CLI does.
type instance struct {
	w     workload
	cfg   config
	dir   string
	fs    *countingFS
	store *wal.Store
	srv   *server.Server
	hs    *http.Server
	// served is closed when hs.Serve returns.
	served chan struct{}
	// reader and writer are the two connections of ingest_mixed; the
	// read-only workloads use reader alone.
	reader, writer *countingClient
	texts          []string
	oracle         *oracle
	// seedMarket is the fed relation's row count before any insert, and
	// nextNull the first numerical-null id no seed row uses.
	seedMarket, nextNull int
	// nextBatch numbers feed batches across the window and the feed tail;
	// acked counts the ones the server acknowledged.
	nextBatch, acked int
	// rng draws the reader's requests, feedRNG the insert contents.
	rng, feedRNG *rand.Rand
	closed       bool
}

// countingClient is an internal/client over the default transport with a
// dial counter, so connection reuse is measured and not assumed.
type countingClient struct {
	*client.Client
	dials atomic.Int64
	tr    *http.Transport
}

func newCountingClient(base string) *countingClient {
	c := &countingClient{tr: http.DefaultTransport.(*http.Transport).Clone()}
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	c.tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c.dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}
	c.Client = client.NewWith(base, &http.Client{Transport: c.tr})
	return c
}

var instanceSeq atomic.Int64

// dbSeed fixes the generated database (it is `arithdbd -gen-seed`'s
// default). The amount of work a query does depends on the data, so a
// database drawn from --seed would make every metric differ from seed to
// seed by more than any useful bound; --seed draws the lookup pool, the
// request sequence and the insert contents.
const dbSeed = 2020

// setup is everything setup_s times: data generation, store open (which
// writes checkpoint zero), server start, oracle precompute, and one
// checked request per distinct text through the client as warm-up.
func setup(w workload, cfg config) (*instance, error) {
	in := &instance{w: w, cfg: cfg, served: make(chan struct{})}
	in.rng = rand.New(rand.NewSource(cfg.seed))
	in.feedRNG = rand.New(rand.NewSource(cfg.seed + 1))
	gen := w.gen
	gen.Seed = dbSeed
	gen.Products, gen.Orders = gen.Products/cfg.dbScale, gen.Orders/cfg.dbScale
	gen.Market, gen.Segments = gen.Market/cfg.dbScale, gen.Segments/cfg.dbScale
	in.texts = w.texts(rand.New(rand.NewSource(cfg.seed+2)), gen)

	in.dir = filepath.Join(cfg.outDir, "tmp", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), instanceSeq.Add(1)))
	if err := os.RemoveAll(in.dir); err != nil {
		return nil, err
	}
	in.fs = newCountingFS()
	var err error
	in.store, err = wal.Open(in.dir, wal.Options{
		FS:   in.fs,
		Seed: func() (*db.Database, error) { return datagen.Generate(gen) },
	})
	if err != nil {
		return nil, err
	}
	d := in.store.DB()
	in.seedMarket = d.Len("Market")
	for _, id := range d.NumNulls() {
		in.nextNull = max(in.nextNull, id+1)
	}

	in.srv, err = server.New(server.Config{DB: d, Durable: in.store, Replication: in.store, Engine: engineOptions})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.hs = &http.Server{Handler: in.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // returns ErrServerClosed from close
	}()
	base := "http://" + ln.Addr().String()
	in.reader, in.writer = newCountingClient(base), newCountingClient(base)

	in.oracle, err = buildOracle(d.Snapshot(), in.texts, w.eps)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, sql := range in.texts {
		got, err := in.reader.MeasureSQL(ctx, sql, w.eps, delta)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := in.oracle.check(sql, got, true); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return in, nil
}

// close drains the server the way arithdbd does on SIGTERM, minus the
// final checkpoint, and removes the data directory.
func (in *instance) close() error {
	if in.closed {
		return nil
	}
	in.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	err = errors.Join(err, in.hs.Shutdown(ctx))
	<-in.served
	in.reader.tr.CloseIdleConnections()
	in.writer.tr.CloseIdleConnections()
	err = errors.Join(err, in.store.Close(), os.RemoveAll(in.dir))
	return err
}
