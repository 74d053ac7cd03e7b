// Command arithdbd is the multi-user arithdb server: it loads (or
// generates) one incomplete database and serves the HTTP/JSON wire
// protocol of internal/server — MeasureSQL with optional streaming top-k
// delivery, atomic batch inserts (POST /v1/insert, incremental index
// maintenance; queries pin copy-on-write snapshots) and schema
// introspection — to any number of concurrent clients, with admission
// control on the measurement pool.
//
//	arithdbd -data DIR [-addr :8080] [-max-inflight N] [-workers N]
//	         [-queue-timeout 2s] [-seed S] [-min-eps 0.005] [-read-only]
//	arithdbd -gen 20000 ...       # synthetic sales database instead of -data
//	arithdbd -data-dir DIR ...    # durable mode: WAL + checkpoints
//	arithdbd -data-dir DIR -replica-of http://primary:8080
//	                              # read replica: bootstrap + tail the primary
//	arithdbd -gen 20000 -shards 4 # hash-shard across 4 in-process stores
//
// With -shards=N the database is hash-partitioned across N in-process
// stores (internal/shard): inserts scatter by a stable content hash, and
// reads are served from a merged copy that holds every row in insert
// order, so every response stays bit-identical to the unsharded server.
// The mode buys no read speed or memory — it exists for placement parity
// with the client's sharded router (same hash, same per-shard contents).
// In-process sharding is in-memory; for durable shards run one arithdbd
// -data-dir per shard and route writes with that router.
//
// With -data-dir the server is durable: startup recovers the newest
// checkpoint and replays the write-ahead log, every acknowledged insert
// is fsync'd to the WAL before it is applied, a background checkpointer
// (-checkpoint-every) folds the log into fresh checkpoints off immutable
// snapshots, and a WAL failure degrades the server to read-only 503s
// instead of crashing it. -data/-gen then only seed a fresh directory.
// A durable primary also serves the replication endpoints
// (GET /v1/replication/checkpoint, GET /v1/replication/log).
//
// With -replica-of the server is a read replica: first boot bootstraps
// -data-dir from the primary's newest checkpoint, then a catchup loop
// tails the primary's WAL (CRC-verified, idempotent replay into the
// replica's own WAL + checkpoint chain), reconnecting with capped
// jittered backoff across primary crashes. Reads are served throughout;
// staleness (lastAppliedSeq, replicaLag) is surfaced in /v1/info and
// /healthz; inserts answer 403 "not-primary".
//
// Clients: `arithdb sql -connect http://host:8080 -query "SELECT ..."`,
// or any HTTP client (see README "Server mode" for the endpoints).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	arithdb "repro"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("arithdbd: ")

	var (
		addr         = flag.String("addr", ":8080", "listen address")
		data         = flag.String("data", "", "database directory (written by datagen or SaveDatabase)")
		gen          = flag.Int("gen", 0, "serve a synthetic sales database with N products instead of -data (orders = 0.8N, market = 0.2N)")
		genSeed      = flag.Int64("gen-seed", 2020, "seed of the synthetic database")
		genNullRate  = flag.Float64("gen-nullrate", 0.1, "numerical null rate of the synthetic database")
		seed         = flag.Int64("seed", 1, "engine seed: fixes every response bit-for-bit")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently measuring requests (0 = max(2, GOMAXPROCS)); further requests queue")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "max queue wait before a 429")
		workers      = flag.Int("workers", 0, "per-request measurement worker budget (0 = GOMAXPROCS / max-inflight)")
		minEps       = flag.Float64("min-eps", 0.005, "smallest accepted eps (sampling cost grows as eps^-2)")
		compileCache = flag.Int("compile-cache", 0, "compiled-kernel cache entries shared by every request (0 = default 1024, negative = no cache: each request compiles its formulas)")
		readOnly     = flag.Bool("read-only", false, "disable POST /v1/insert (serve a frozen database)")
		shutdownWait = flag.Duration("shutdown-wait", 10*time.Second, "drain deadline on SIGINT/SIGTERM")
		dataDir      = flag.String("data-dir", "", "durable data directory (WAL + checkpoints); -data/-gen seed it on first boot")
		ckptEvery    = flag.Duration("checkpoint-every", time.Minute, "background checkpoint period in -data-dir mode (0 disables)")
		noSync       = flag.Bool("no-sync", false, "skip the per-insert WAL fsync (benchmarks only: trades crash durability for throughput)")
		noAdaptive   = flag.Bool("no-adaptive", false, "disable the adaptive top-k sampling race for LIMIT queries (fixed budget per candidate)")
		replicaOf    = flag.String("replica-of", "", "run as a read replica of the primary at this base URL (requires -data-dir)")
		shards       = flag.Int("shards", 0, "hash-shard the database across N in-process stores, reads served from a merged copy (results stay bit-identical; incompatible with -data-dir/-replica-of)")
	)
	flag.Parse()

	if *data != "" && *gen > 0 {
		log.Fatal("-data and -gen are mutually exclusive")
	}
	if *shards < 0 {
		log.Fatal("-shards must not be negative")
	}
	if *shards > 0 && (*dataDir != "" || *replicaOf != "") {
		// In-process sharding is in-memory; durable sharding composes at
		// the fleet level (one durable arithdbd per shard, writes routed
		// by client.Sharded with the same hash).
		log.Fatal("-shards is incompatible with -data-dir/-replica-of: run one durable arithdbd per shard instead")
	}
	if *ckptEvery < 0 {
		log.Fatal("-checkpoint-every must not be negative (use 0 to disable background checkpoints)")
	}
	if *replicaOf != "" {
		// A replica's state comes from the primary, nowhere else — and a
		// replica is read-only by construction, so an explicit
		// -read-only=false is a misconfiguration, not an override.
		if *dataDir == "" {
			log.Fatal("-replica-of requires -data-dir (the replica's own durable directory)")
		}
		if *data != "" || *gen > 0 {
			log.Fatal("-replica-of bootstraps from the primary; it is incompatible with -data/-gen")
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "read-only" && !*readOnly {
				log.Fatal("-replica-of serves read-only by construction; -read-only=false is invalid")
			}
		})
	}
	// seedDB builds the initial database from -data/-gen. In durable mode
	// it only runs when the data directory holds no state yet.
	seedDB := func() (*arithdb.Database, error) {
		switch {
		case *data != "":
			return arithdb.LoadDatabase(*data)
		case *gen > 0:
			return arithdb.GenerateSales(arithdb.SalesConfig{
				Seed: *genSeed, Products: *gen, Orders: *gen * 4 / 5, Market: *gen / 5,
				Segments: *gen / 10, NullRate: *genNullRate,
			})
		}
		return nil, errors.New("one of -data or -gen is required to seed a fresh database")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		d       *arithdb.Database
		store   *wal.Store
		rep     *replica.Replicator
		repDone chan struct{}
		sharded *shard.Store
		err     error
	)
	switch {
	case *replicaOf != "":
		// Bootstrap retries until the primary answers: a replica routinely
		// boots while its primary is down, and must come up as soon as the
		// primary does.
		for {
			rep, err = replica.Open(ctx, replica.Config{
				Primary:         *replicaOf,
				Dir:             *dataDir,
				CheckpointEvery: *ckptEvery,
				NoSync:          *noSync,
				Logf:            log.Printf,
			})
			if err == nil {
				break
			}
			log.Printf("replica bootstrap: %v (retrying)", err)
			select {
			case <-ctx.Done():
				log.Fatal("interrupted before the replica bootstrapped")
			case <-time.After(2 * time.Second):
			}
		}
		d = rep.DB()
		repDone = make(chan struct{})
		go func() { rep.Run(ctx); close(repDone) }()
	case *dataDir != "":
		store, err = wal.Open(*dataDir, wal.Options{
			Seed:            seedDB,
			CheckpointEvery: *ckptEvery,
			NoSync:          *noSync,
			Logf:            log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		d = store.DB()
		log.Printf("recovered %s: %d tuples, seq %d (checkpoint covers %d)",
			*dataDir, d.Size(), store.Seq(), store.CheckpointSeq())
	default:
		if d, err = seedDB(); err != nil {
			log.Fatal(err)
		}
		if *shards > 0 {
			if sharded, err = shard.FromDatabase(d, *shards); err != nil {
				log.Fatal(err)
			}
		}
	}

	cfg := server.Config{
		ReadOnly: *readOnly,
		Engine: arithdb.EngineOptions{
			Seed:             *seed,
			PoolWorkers:      *workers,
			CompileCacheSize: *compileCache,
			NoAdaptive:       *noAdaptive,
		},
		MaxInflight:  *maxInflight,
		QueueTimeout: *queueTimeout,
		MinEps:       *minEps,
	}
	switch {
	case rep != nil:
		// Source (not DB): a mid-run re-bootstrap swaps the replica's store,
		// and every request must see the current one.
		cfg.Source = rep.DB
		cfg.Replica = rep
		cfg.ReadOnly = true
	case sharded != nil:
		cfg.Sharded = sharded
	default:
		cfg.DB = d
		if store != nil {
			cfg.Durable = store
			cfg.Replication = store
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	switch {
	case rep != nil:
		log.Printf("serving %d tuples on http://%s (replica of %s, seq %d)",
			d.Size(), ln.Addr(), rep.Primary(), rep.LastAppliedSeq())
	case sharded != nil:
		log.Printf("serving %d tuples on http://%s (%d shards, sizes %v)",
			sharded.Size(), ln.Addr(), sharded.NumShards(), sharded.ShardSizes())
	default:
		log.Printf("serving %d tuples on http://%s", d.Size(), ln.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("draining (up to %s)...", *shutdownWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownWait)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if rep != nil {
		// The catchup loop exits on the signal context; wait for it so no
		// replay is mid-flight, then checkpoint and close the local store.
		<-repDone
		store = rep.Store()
	}
	if store != nil {
		// The server has drained: no insert is in flight. Fold the WAL tail
		// into a final checkpoint (best effort — recovery replays the log
		// either way), then sync and close the log.
		if err := store.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
		if err := store.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "arithdbd: bye")
}
