GO ?= go
GOFMT ?= gofmt
# Pinned staticcheck version: CI installs exactly this; locally the
# staticcheck step is skipped when the binary is not on PATH (offline
# dev containers cannot go install it).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: check vet build test race lint-check bench-smoke benchmark-smoke bench bench-record bench-check fuzz-smoke crash-check replica-check shard-check

# check is what CI runs: static checks, build, tests, the determinism
# lint gate, a one-iteration benchmark smoke so the Figure 1 pipeline
# stays runnable, and the nested benchmark module's own vet + tests.
check: vet build test lint-check bench-smoke benchmark-smoke

# vet layers three formatting/correctness gates: gofmt (fail on any
# unformatted file), go vet, and staticcheck when available.
vet:
	@unformatted=$$($(GOFMT) -l . 2>/dev/null); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# lint-check runs the determinism invariant linters (cmd/arithdb-lint:
# detrand, maporder, floateq, ctxpoll, errdrop) over the whole tree and
# their analysistest fixture suites. Must be run from the repo root —
# the source importer resolves the module from the working directory.
lint-check:
	$(GO) run ./cmd/arithdb-lint ./...
	$(GO) test ./internal/analysis/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector (CI runs it as its own job;
# the fused SQL pipeline and MeasureBatch are the concurrent paths).
race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure1a' -benchtime 1x -benchmem .

# benchmark-smoke vets and tests the nested benchmark module (≈ 5 s). It
# compiles against the product's exported surface, and `go build ./...`
# at the root does not descend into it, so a refactor underneath that
# surface is only caught here.
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench records the Figure 1 benchmark family as BENCH_<date>.json for
# the performance trajectory across PRs.
bench:
	scripts/bench.sh

# bench-record writes BENCH_<date>_pr<N>.json, one point of the
# trajectory: the bench family above plus one benchmark/run.sh pass over
# every BENCHMARK.json workload, compared with the previous record when
# there is one (scripts/bench_record.sh). Usage: make bench-record PR=<N>
bench-record:
	scripts/bench_record.sh $(PR)

# bench-check is the performance-regression guard (CI runs it alongside
# the race job): the SQL pipeline benchmarks must stay within the
# allocs/op budgets checked in at scripts/alloc_budget.txt, and the
# adaptive top-k race must stay within the samples/op budgets of
# scripts/sample_budget.txt (including the >= 3x skewed saving over the
# fixed per-candidate budget).
bench-check:
	scripts/alloc_check.sh
	scripts/sample_check.sh

# crash-check is the durability gauntlet (CI runs it as its own job):
# fault-injected WAL failures, crashes simulated at every record boundary
# and at torn offsets inside records, recovery parity down to the
# measure bits, and the degraded read-only server path. -count=1 defeats
# the test cache so the fault injection actually reruns.
crash-check:
	$(GO) test ./internal/wal -count=1 -run 'TestLog|TestFaultFS|TestStore'
	$(GO) test . -count=1 -run 'TestDurable'
	$(GO) test ./internal/server -count=1 -run 'TestServerDegradesOnWALFault|TestServerDurableInsertRecovers'
	$(GO) test ./internal/dbio -count=1 -run 'TestSave'

# replica-check is the replication gauntlet (CI runs it as its own job):
# checkpoint bootstrap + log catchup against a real durable primary,
# idempotent reconvergence across abrupt primary crashes, 410 →
# re-bootstrap after truncation, and the chaos harness — log shipping
# and client failover under injected latency, dropped connections, and
# streams cut mid-NDJSON-frame (internal/faultnet), asserting
# bit-identical convergence, zero failed reads through primary
# downtime, and no double-applied batch. -race because the catchup
# loop, the long-poll tail, and the failover client are all concurrent;
# -count=1 defeats the test cache so the fault injection actually reruns.
replica-check:
	$(GO) test ./internal/replica -race -count=1
	$(GO) test ./internal/faultnet -race -count=1
	$(GO) test . -race -count=1 -run 'TestReplicaChaos'

# shard-check is the sharding gauntlet (CI runs it as its own job): the
# hash-sharded store under -race — unit placement/gather tests (gathers
# racing a writer included), the shard-count invariance suite (bit-identical
# results across N ∈ {1,2,4} and worker configurations, including the
# LIMIT-k adaptive race and the randomized parity fuzz), the sharded
# server e2e (buffered + streamed), and the fleet chaos harness: two
# shard servers behind the hash router with client-side injected latency
# and dropped connections, asserting exact per-shard placement and no
# duplicated or lost acked write. -count=1 defeats the test cache so the
# fault injection actually reruns.
shard-check:
	$(GO) test ./internal/shard -race -count=1
	$(GO) test ./internal/server -race -count=1 -run 'TestSharded'
	$(GO) test . -race -count=1 -run 'TestShardChaos'

# fuzz-smoke gives each fuzzer a short budget: malformed requests and SQL
# must come back as structured errors, never panics, an evaluator
# rebound across random compiled formulas must decide each exactly as a
# fresh one does, and arbitrary bytes read as WAL records or batch
# payloads must never panic, be accepted past a checksum mismatch, or be
# accepted in any encoding but the writer's own (CI runs this as its own
# job; go test -fuzz takes one target at a time).
fuzz-smoke:
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzMeasureRequest$$' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzMeasureSQLString$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzValueRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/realfmla -run '^$$' -fuzz '^FuzzEvaluatorBind$$' -fuzztime 5s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzParseRecord$$' -fuzztime 5s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 5s
