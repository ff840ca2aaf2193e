#!/usr/bin/env bash
# scripts/bench.sh — archive the embedding benchmarks and a quick
# machine-readable sweep.
#
# Writes into BENCH_OUT (default: repo root):
#   BENCH_embed.txt    go test -bench output: BenchmarkEmbedTheorem1,
#                      BenchmarkEmbedScaling, BenchmarkRingCursor (the
#                      ring cursor emit path, vertices/s), the
#                      BenchmarkObs* instrumentation-overhead suite
#                      (disabled path must stay 0 allocs/op), and the
#                      BenchmarkFamilyWith* labeled-lookup suite next
#                      to the BENCH_obs.json registry dump
#   BENCH_embed.json   starsweep -quick -exp F2 -json: construction time
#                      and output size vs n as {"experiments": [...]}
#   BENCH_repair.txt   go test -bench output: BenchmarkRepair, the
#                      splice-vs-cold sub-benchmarks of the incremental
#                      repair engine
#   BENCH_repair.json  starsweep -exp F7 -maxn 8 -json: repair latency
#                      table; its "splice speedup" column at n=8 is the
#                      acceptance claim (>= 10x over cold embedding)
#   BENCH_obs.json     the F2 sweep's registry dump (phase histograms,
#                      cache counters, junction backtracks), for
#                      run-over-run comparison of instrumentation data
#   BENCH_serve.json   starserve -load against a self-hosted server:
#                      per-route (embed/repair/ring) client-observed
#                      p50/p95 latency under the fault-churn workload
#   BENCH_record.json  all of the above normalized into one starbench
#                      record (the input to `starbench -compare`)
#   BENCH_trajectory.ndjson  append-only history: one record line per
#                      bench.sh run, validated with `starbench -check`
#
# BENCHTIME (default 1x) is passed to -benchtime; use e.g.
# BENCHTIME=2s scripts/bench.sh for stable numbers. ci.sh runs this as a
# smoke leg with a throwaway BENCH_OUT, then gates on the record (see
# its perf gate leg).
set -eu

cd "$(dirname "$0")/.."

BENCH_OUT="${BENCH_OUT:-.}"
BENCHTIME="${BENCHTIME:-1x}"
mkdir -p "$BENCH_OUT"

{
    go test -run '^$' -bench 'BenchmarkEmbedTheorem1|BenchmarkEmbedScaling' \
        -benchmem -benchtime "$BENCHTIME" .
    go test -run '^$' -bench 'BenchmarkObs|BenchmarkRingCursor' \
        -benchmem -benchtime "$BENCHTIME" ./internal/core
    # The tracing hot paths: a child span off a live op (exemplar
    # reservoir included) and one structured event-log record; plus the
    # labeled-family lookup suite (live With, pre-resolved handle, and
    # the disabled path, which must stay 0 allocs/op).
    go test -run '^$' -bench 'BenchmarkSpanEnabledWithOp|BenchmarkEventLogRecord|BenchmarkFamilyWith' \
        -benchmem -benchtime "$BENCHTIME" ./internal/obs
} | tee "$BENCH_OUT/BENCH_embed.txt"

go test -run '^$' -bench 'BenchmarkRepair' \
    -benchmem -benchtime "$BENCHTIME" . | tee "$BENCH_OUT/BENCH_repair.txt"

go run ./cmd/starsweep -quick -exp F2 -json \
    -metrics-json "$BENCH_OUT/BENCH_obs.json" > "$BENCH_OUT/BENCH_embed.json"

# F7 needs n=8 for the headline speedup, so it bypasses -quick (which
# caps the sweep at n=7) and trims the seed count instead.
go run ./cmd/starsweep -exp F7 -maxn 8 -seeds 3 -json > "$BENCH_OUT/BENCH_repair.json"

# Service latency under fault churn: starserve boots a private server
# and replays degrading-instance lifecycles against it. Deterministic
# seed, fixed request count — the p50/p95 numbers land in the record
# as serve/<route> metrics.
go run ./cmd/starserve -load -load-n 6 -requests 120 -concurrency 4 \
    -ring-every 9 -seed 1 -out "$BENCH_OUT/BENCH_serve.json" >/dev/null

# Normalize every artifact into one starbench record and append it to
# the run-over-run trajectory, then validate the whole history.
go run ./cmd/starbench -record "$BENCH_OUT/BENCH_record.json" \
    -label "$(git rev-parse --short HEAD 2>/dev/null || date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -append "$BENCH_OUT/BENCH_trajectory.ndjson" \
    "$BENCH_OUT/BENCH_embed.txt" "$BENCH_OUT/BENCH_embed.json" \
    "$BENCH_OUT/BENCH_repair.txt" "$BENCH_OUT/BENCH_repair.json" \
    "$BENCH_OUT/BENCH_obs.json" "$BENCH_OUT/BENCH_serve.json"
go run ./cmd/starbench -check "$BENCH_OUT/BENCH_trajectory.ndjson"

echo "bench artifacts written to $BENCH_OUT/BENCH_embed.{txt,json}, $BENCH_OUT/BENCH_repair.{txt,json}, $BENCH_OUT/BENCH_obs.json, $BENCH_OUT/BENCH_serve.json and $BENCH_OUT/BENCH_record.json (trajectory: $BENCH_OUT/BENCH_trajectory.ndjson)"
