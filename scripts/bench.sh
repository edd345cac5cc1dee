#!/bin/sh
# bench.sh — regenerate BENCH_PR10.json: run the placement hot-path
# benchmarks (go test -bench -benchmem across the root, placement,
# treematch, comm, orwlnet and orwl packages — including the PR 9
# sparse 10ktasks-1kcores partitioned mapping and the PR 10
# RemapDeltaPush single-partition delta, whose extra metrics carry the
# push_bytes_ratio / rebind_ratio acceptance numbers) and record
# ns/op + allocs/op as JSON, plus the cmd/placeload pipelined
# transport run. Benches that existed before PR 3 carry their
# recorded baseline from scripts/bench_baseline_pr3.json; later
# additions record fresh.
#
#   scripts/bench.sh                    # full run, writes BENCH_PR10.json
#   scripts/bench.sh -benchtime 0.3s -placeload 1s  # quicker CI pass
#
# Extra flags are handed through to cmd/benchjson (later flags win).
set -eu
cd "$(dirname "$0")/.."
exec go run ./cmd/benchjson -baseline scripts/bench_baseline_pr3.json -placeload 2s "$@"
