#!/usr/bin/env bash
# Allocation-regression guard: runs the end-to-end SQL pipeline benchmark
# with -benchmem and fails when any benchmark listed in
# scripts/alloc_budget.txt exceeds its checked-in allocs/op budget. The
# budgets carry headroom over the measured steady state (see the current
# BENCH_*.json), so the guard trips on real regressions — a boxed-tuple
# path sneaking back into the columnar executor — not on noise.
#
# Usage: scripts/alloc_check.sh [benchtime]   (default 2x)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-2x}"
budget_file="scripts/alloc_budget.txt"

raw="$(go test -run '^$' -bench 'BenchmarkSQLPipeline$|BenchmarkMixedInsertQuery|BenchmarkInsertDurable' -benchmem -benchtime "$benchtime" .
       go test -run '^$' -bench 'BenchmarkShardedScatterGather' -benchmem -benchtime "$benchtime" ./internal/shard
       go test -run '^$' -bench 'BenchmarkReduce$' -benchmem -benchtime "$benchtime" ./internal/realfmla)"
printf '%s\n' "$raw"

fail=0
while read -r name budget; do
    case "$name" in ''|\#*) continue ;; esac
    got="$(printf '%s\n' "$raw" | awk -v n="$name" '
        $1 ~ "^"n"(-[0-9]+)?$" {
            for (i = 4; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
        }')"
    if [ -z "$got" ]; then
        echo "alloc-check: $name not found in benchmark output" >&2
        fail=1
        continue
    fi
    if [ "$got" -gt "$budget" ]; then
        echo "alloc-check: $name allocated $got/op, budget $budget" >&2
        fail=1
    else
        echo "alloc-check: $name $got/op within budget $budget"
    fi
done < "$budget_file"

exit "$fail"
