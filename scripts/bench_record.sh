#!/usr/bin/env bash
# Records one point of the performance trajectory as
# BENCH_<date>_pr<N>.json in the repository root: the root go-test
# benchmark family of scripts/bench.sh under "go_bench", and the records
# of one `benchmark/run.sh --out` pass over every BENCHMARK.json workload
# (end-to-end, then layers) under "runs", one record a line. When an
# earlier BENCH_*_pr*.json exists, its runs and these are compared with
# `benchmark/run.sh -compare` (earlier = A, this one = B); with one run a
# side the verdicts show direction, not significance. The go benchmarks
# always run at bench.sh's 1s benchtime, so every record is comparable
# with the one before it.
#
# Usage: scripts/bench_record.sh <N>     (make bench-record PR=<N>)
set -euo pipefail
cd "$(dirname "$0")/.."

pr="${1:?usage: scripts/bench_record.sh <number>}"
out="BENCH_$(date +%Y-%m-%d)_pr${pr}.json"
# The previous record is the one with the highest number: split at the
# "r" of "_pr", the second field starts with it.
prev="$(ls BENCH_*_pr*.json 2>/dev/null | grep -vx "$out" | sort -t r -k 2 -n | tail -n 1 || true)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

BENCH_OUT="$tmp/go.json" scripts/bench.sh "" 1s
bash benchmark/run.sh --out "$tmp/runs.jsonl"

# runs extracts a record file's runs, one JSON record a line, for -compare.
runs() {
  sed -n '/^  "runs": \[$/,/^  \]$/p' "$1" | sed -n 's/^    \({.*}\),\{0,1\}$/\1/p'
}

{
  printf '{\n  "go_bench": '
  sed '2,$s/^/  /; $s/$/,/' "$tmp/go.json"
  printf '  "runs": [\n'
  sed 's/^/    /; $!s/$/,/' "$tmp/runs.jsonl"
  printf '  ]\n}\n'
} > "$out"
echo "wrote $out"

if [ -n "$prev" ]; then
  runs "$prev" > "$tmp/prev.jsonl"
  runs "$out" > "$tmp/this.jsonl"
  for f in "$tmp/prev.jsonl" "$tmp/this.jsonl"; do
    if [ ! -s "$f" ]; then
      echo "bench_record: no runs extracted from $( [ "$f" = "$tmp/prev.jsonl" ] && echo "$prev" || echo "$out" )" >&2
      exit 1
    fi
  done
  echo "compare: $prev (A) vs $out (B)"
  # A worse verdict is reported, not fatal; any other -compare failure is.
  if ! bash benchmark/run.sh -compare "$tmp/prev.jsonl" "$tmp/this.jsonl" 2> "$tmp/compare.err"; then
    cat "$tmp/compare.err" >&2
    grep -q 'verdicts are worse$' "$tmp/compare.err" || exit 1
  fi
fi
