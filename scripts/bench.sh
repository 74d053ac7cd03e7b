#!/usr/bin/env bash
# Runs the Figure 1 benchmark family plus the end-to-end SQL pipeline
# benchmarks and records the results as BENCH_<date>.json in the
# repository root, so the performance trajectory across PRs stays
# machine-readable. The default regexp covers, among others:
#   - BenchmarkFigure1aWorkersScaled: the worker benchmark sized to show
#     multi-core sampling scaling (m = 40000 samples per candidate over a
#     PoolWorkers budget of 1, 2 and 4; the smaller
#     BenchmarkFigure1aWorkers run is kept as the overhead bound, and a
#     parallel call allocates a few objects more than a sequential one
#     for the goroutines it starts and joins);
#   - BenchmarkSQLPipeline: indexed/fused end-to-end pipelines over
#     the columnar executor, and race, the served LIMIT-k shape (a fresh
#     engine per request over one shared kernel cache) that guards the
#     race's cut after the k-th certain candidate, and race-nku, the same
#     shape on a reordered plan (Never Knowingly Undersold), that guards
#     the ordinal-slab replay (allocs/op guarded by scripts/alloc_check.sh);
#   - BenchmarkSQLPipelineSweep: repeated-MeasureSQL ε-sweep showing the
#     shared compiled-kernel cache of the fused measurement pool;
#   - BenchmarkMixedInsertQuery: the write path — one insert + one
#     indexed query per op under incremental index maintenance, with the
#     snapshot (copy-on-write) regime alongside;
#   - BenchmarkInsertDurable: the durable write path (internal/wal) —
#     one committed batch per op through validate/encode/append/fsync/
#     apply, with the nosync and in-memory baselines alongside, so the
#     price of durability stays visible;
#   - BenchmarkServerThroughput: end-to-end HTTP requests/second through
#     the multi-user server (internal/server), all clients sharing one
#     database under admission control;
#   - BenchmarkAdaptiveTopK: the adaptive top-k sampling race vs the
#     fixed per-candidate budget on skewed and uniform candidate fields,
#     reporting samples/op (guarded by scripts/sample_check.sh);
#   - BenchmarkReplicaCatchup: a cold replica bootstrapping from the
#     primary's checkpoint and replaying a 50-batch backlog over HTTP
#     log shipping (internal/replica), so catchup latency stays visible;
#   - BenchmarkShardedScatterGather: the hash-sharded store
#     (internal/shard) vs the single-store pipeline on the same query,
#     and an insert-then-join on both, so what serving from the gathered
#     copy costs stays visible (allocs/op guarded by
#     scripts/alloc_check.sh);
#   - BenchmarkReduce: realfmla.Reduce on a Figure-1-shaped formula among
#     11 208 ambient nulls, the per-formula preprocessing behind every
#     kernel-cache miss (allocs/op guarded by scripts/alloc_check.sh).
#
# Usage: scripts/bench.sh [bench-regexp] [benchtime]
#   scripts/bench.sh                 # the default family below, -benchtime 1s
#   scripts/bench.sh Figure1a 5x     # quicker, single series
# BENCH_OUT names the output file instead (scripts/bench_record.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

bench="${1:-Figure1|SQLPipeline|MixedInsertQuery|InsertDurable|ServerThroughput|AdaptiveTopK|ReplicaCatchup|ShardedScatterGather|Reduce}"
benchtime="${2:-1s}"
out="${BENCH_OUT:-BENCH_$(date +%Y-%m-%d).json}"

raw="$(go test -run '^$' -bench "$bench" -benchmem -benchtime "$benchtime" . ./internal/server ./internal/replica ./internal/shard ./internal/realfmla)"
printf '%s\n' "$raw"

{
  printf '{\n'
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
  printf '  "bench": "%s",\n' "$bench"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "results": [\n'
  printf '%s\n' "$raw" | awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      bytes = ""; allocs = ""
      for (i = 4; i <= NF; i++) {
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
      }
      if (printed) printf ",\n"
      printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
      if (bytes != "") printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bytes, allocs
      printf "}"
      printed = 1
    }
    END { printf "\n" }'
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $out"
