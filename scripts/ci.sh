#!/usr/bin/env bash
# scripts/ci.sh — the repository's tier-1 gate.
#
# Legs, in order (fail-fast):
#   1. gofmt         -- no unformatted files
#   2. go vet        -- stdlib static checks
#   3. go build      -- whole module compiles
#   4. go test       -- full test suite
#   4b. perfbench    -- go vet and go test of the benchmark module
#                       (perfbench/, its own go.mod), which ./... never
#                       reaches
#   5. go test -race -- the full module under the race detector (-short)
#   6. starlint      -- the project's own analyzers (see cmd/starlint),
#                       strict: stale suppressions/config entries fail
#   7. obs smoke     -- starring -debug-addr end to end: scrape /metrics
#                       (OpenMetrics parse, plus the exposition must
#                       carry labeled series), validate the flight
#                       bundle's Perfetto trace and the NDJSON event
#                       log via starmon
#   7b. slo smoke    -- starmon -watch over a replayed series: a rule
#                       engineered to fire must exit 1, a passing
#                       policy must exit 0 (the CI gate contract)
#   8. flight smoke  -- starring past the fault budget must fail AND
#                       auto-dump the flight-recorder bundle; starmon
#                       validates all three artifacts, and the failing
#                       trace's -postmortem block must list both its
#                       root span and its obs.flight.error event; once
#                       for a ring and once for an s-t path
#   9. stream smoke  -- the ring-cursor pipeline end to end: embed S_8
#                       with explicit faults at O(#blocks) memory, match
#                       the -print output's SHA-256 against the digest
#                       committed from the retired materialized engine
#                       (scripts/stream-smoke.sha256), save the ring in
#                       SRS2 (one star-step byte per vertex), require the
#                       file to hold at most 40,400 bytes and starverify
#                       it
#   9a. path smoke   -- the longest s-t path pipeline end to end: two
#                       S_8 paths with the stream smoke's faults, one
#                       per endpoint side, must -print byte for byte
#                       the digests committed in scripts/path-smoke.sha256
#   9b. serve smoke  -- starserve end to end: boot the service, match
#                       its /ring body byte for byte against starring
#                       -print's ring, drive the fault-churn load
#                       generator against it,
#                       starmon -watch live against the committed SLO
#                       policy (scripts/slo-serve.json) must exit 0;
#                       then a deliberately overloaded server (admission
#                       limit 1) under the same policy must make watch
#                       exit 1, and an injected /chaos 500 must
#                       auto-dump a flight bundle whose -postmortem
#                       block for the request's client trace id lists
#                       both its serve.op.request span and its
#                       obs.flight.error event
#  10. benchmarks    -- every Go benchmark in the module, once each
#  11. perf gate     -- starbench: perfbench's workloads at seeds 1-5,
#                       medians against scripts/perf-baseline.ndjson
#                       within BENCHMARK.json's bounds (~160 s)
#  12. fuzz smoke    -- each fuzz target for a few seconds
#
# Runs from any directory; needs only the Go toolchain. Override the
# fuzz budget with FUZZTIME (default 5s), e.g. FUZZTIME=30s scripts/ci.sh.
set -u

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"
failures=0

leg() {
    local name="$1"
    shift
    echo "==> $name: $*"
    local start
    start=$(date +%s)
    if "$@"; then
        echo "    ok ($(($(date +%s) - start))s)"
    else
        echo "    FAIL: $name" >&2
        failures=$((failures + 1))
        return 1
    fi
}

# 1. Formatting: gofmt -l prints offending files; any output is a failure.
gofmt_check() {
    local out
    out=$(gofmt -l .)
    if [ -n "$out" ]; then
        echo "unformatted files:" >&2
        echo "$out" >&2
        return 1
    fi
}

leg "gofmt" gofmt_check || exit 1
leg "vet" go vet ./... || exit 1
leg "build" go build ./... || exit 1
leg "test" go test ./... || exit 1

# Perfbench: the benchmark of record is its own module, linked to this
# one through `replace repro => ../`, so no ./... leg compiles it. Vet
# and test it under perfbench/run.sh's environment, so a root change
# that breaks the benchmark fails here rather than at the next run.
perfbench_check() {
    local env=(GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off)
    env "${env[@]}" go -C perfbench vet ./... &&
        env "${env[@]}" go -C perfbench test ./...
}

leg "perfbench" perfbench_check || exit 1

# Race leg: the full module with -short, which keeps the heavyweight
# campaign tests out and the leg under ~2 minutes (see README "Static
# analysis & CI").
leg "race" go test -short -race ./... || exit 1

leg "starlint" go run ./cmd/starlint -strict-config ./... || exit 1

# Obs smoke: run starring with a live debug server held open, scrape
# its /metrics endpoint, and validate every exported artifact through
# starmon's checkers (OpenMetrics parse, the flight bundle's Perfetto
# trace with at least one complete event, NDJSON replay).
obs_smoke() {
    local tmp pid addr i
    tmp=$(mktemp -d)
    go build -o "$tmp/starring" ./cmd/starring || return 1
    go build -o "$tmp/starmon" ./cmd/starmon || return 1

    "$tmp/starring" -n 6 -faults 2 -seed 1 -debug-addr 127.0.0.1:0 \
        -flight-dump "$tmp/flight" -events-out "$tmp/events.ndjson" \
        -hold 60s >"$tmp/out.log" 2>&1 &
    pid=$!

    # The run announces its ephemeral address, then holds once the
    # artifacts are on disk; poll for both before scraping.
    addr=""
    for i in $(seq 1 300); do
        addr=$(sed -n 's#^debug server listening on http://\([^/]*\)/.*#\1#p' "$tmp/out.log")
        if [ -n "$addr" ] && grep -q '^holding for' "$tmp/out.log"; then
            break
        fi
        addr=""
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "starring never reached its hold phase:" >&2
        cat "$tmp/out.log" >&2
        kill "$pid" 2>/dev/null
        return 1
    fi

    # The exposition must be dimensional: a completed embedding leaves
    # core_embed_completed_total{mode=...,n=...} behind, so -want-label
    # fails the leg if the labeled pipeline ever stops exporting.
    if ! "$tmp/starmon" -check-metrics "http://$addr/metrics" -want-label mode; then
        kill "$pid" 2>/dev/null
        return 1
    fi
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null

    "$tmp/starmon" -check-trace "$tmp/flight/flight-trace.json" || return 1
    "$tmp/starmon" -replay "$tmp/events.ndjson" >/dev/null || return 1
}

leg "obs smoke" obs_smoke || exit 1

# SLO smoke: the starmon -watch exit-code contract over a replayed
# series, written in the -series-json format the sampler writes. The
# ring dips to 80 mid-series: a floor of 100 must fire (exit 1, sticky
# even though the curve recovers), a floor of 50 plus a generous
# failure-rate rule must hold (exit 0).
slo_smoke() {
    local tmp
    tmp=$(mktemp -d)
    go build -o "$tmp/starmon" ./cmd/starmon || return 1

    cat >"$tmp/series.json" <<'EOF'
{"period_ns": 1000000000, "series": [
  {"name": "sim.ring_length", "kind": "gauge", "samples": [
    {"t_unix_ns": 1000000000, "v": 120}, {"t_unix_ns": 2000000000, "v": 118},
    {"t_unix_ns": 3000000000, "v": 80}, {"t_unix_ns": 4000000000, "v": 116}]},
  {"name": "sim.failures", "kind": "counter", "samples": [
    {"t_unix_ns": 1000000000, "v": 0}, {"t_unix_ns": 2000000000, "v": 1},
    {"t_unix_ns": 3000000000, "v": 2}, {"t_unix_ns": 4000000000, "v": 2}]}
]}
EOF
    cat >"$tmp/firing.json" <<'EOF'
{"rules": [
  {"name": "ring-floor", "kind": "threshold",
   "metric": "sim.ring_length", "window_s": 2, "min": 100}
]}
EOF
    cat >"$tmp/passing.json" <<'EOF'
{"rules": [
  {"name": "ring-floor", "kind": "threshold",
   "metric": "sim.ring_length", "window_s": 2, "min": 50},
  {"name": "failure-rate", "kind": "rate",
   "metric": "sim.failures", "window_s": 4, "max_per_s": 5}
]}
EOF

    "$tmp/starmon" -watch -series "$tmp/series.json" -rules "$tmp/firing.json" >"$tmp/firing.log"
    if [ "$?" -ne 1 ]; then
        echo "firing policy should exit 1:" >&2
        cat "$tmp/firing.log" >&2
        return 1
    fi
    grep -q 'FIRING   ring-floor' "$tmp/firing.log" || {
        echo "watch never reported the FIRING transition:" >&2
        cat "$tmp/firing.log" >&2
        return 1
    }
    "$tmp/starmon" -watch -series "$tmp/series.json" -rules "$tmp/passing.json" >"$tmp/passing.log" || {
        echo "passing policy should exit 0:" >&2
        cat "$tmp/passing.log" >&2
        return 1
    }
}

leg "slo smoke" slo_smoke || exit 1

# trace_block_lists RENDER HEADER SPAN: succeed when the starmon
# -postmortem render in file RENDER has a trace block whose header line
# matches the awk regex HEADER and that lists both a `span  SPAN` line
# and an obs.flight.error event. Spans and events come from the flight
# recorder's one ring, so a retained trace keeps both.
trace_block_lists() {
    awk -v hdr="$2" -v span="  span  $3 " '
        function close_block() { if (inb && s && e) found = 1; inb = s = e = 0 }
        /^trace / { close_block(); inb = ($0 ~ hdr); next }
        /^[^ ]/ { close_block(); next }
        inb && index($0, span) == 1 { s = 1 }
        inb && /^  event / && / obs\.flight\.error/ { e = 1 }
        END { close_block(); exit !found }
    ' "$1"
}

# Flight smoke: drive an embed past the paper's fault budget
# (n=5 tolerates n-3=2 vertex faults; 3 must fail), so the flight
# recorder auto-dumps its post-mortem bundle, then validate the bundle
# through every checker and require its -postmortem render to keep the
# failing trace whole: the core.op.embed root span and the
# obs.flight.error event in one trace block. The path half runs the
# same fault set as a longest-path embed, which shares the ring's
# pipeline and so must leave the same post-mortem.
flight_smoke() {
    local tmp mode
    tmp=$(mktemp -d)
    go build -o "$tmp/starring" ./cmd/starring || return 1
    go build -o "$tmp/starmon" ./cmd/starmon || return 1

    for mode in ring path; do
        local args=() dir="$tmp/flight-$mode"
        if [ "$mode" = path ]; then
            args=(-path-from 12345 -path-to 54312)
        fi
        if "$tmp/starring" -n 5 -faults 3 -seed 1 "${args[@]}" \
            -flight-dump "$dir" >"$tmp/out.log" 2>&1; then
            echo "starring ($mode) should have failed beyond the fault budget" >&2
            cat "$tmp/out.log" >&2
            return 1
        fi
        if [ ! -f "$dir/flight-events.ndjson" ]; then
            echo "budget overflow ($mode) did not auto-dump a flight bundle:" >&2
            cat "$tmp/out.log" >&2
            return 1
        fi

        "$tmp/starmon" -check-events "$dir/flight-events.ndjson" || return 1
        "$tmp/starmon" -check-trace "$dir/flight-trace.json" || return 1
        "$tmp/starmon" -check-metrics "$dir/flight-metrics.txt" || return 1
        "$tmp/starmon" -postmortem "$dir" >"$tmp/postmortem.log" || return 1
        trace_block_lists "$tmp/postmortem.log" '^trace ' core.op.embed || {
            echo "no $mode postmortem trace block lists both core.op.embed and obs.flight.error:" >&2
            cat "$tmp/postmortem.log" >&2
            return 1
        }
    done
}

leg "flight smoke" flight_smoke || exit 1

# Stream smoke: the ring-cursor pipeline end to end. One S_8 embedding
# (40320 vertices) with explicit faults must -print byte for byte what
# the retired materialized engine printed — its SHA-256 is committed in
# scripts/stream-smoke.sha256 — and its save must pass starverify at
# the guaranteed minimum length. The saved file must take one byte per
# vertex: 40314 step bytes plus framing fit in 40,400 bytes, while a
# writer that fell back to escaped ranks would still round-trip and
# verify, at over twice the size.
stream_smoke() {
    local tmp fv minlen want got size
    tmp=$(mktemp -d)
    go build -o "$tmp/starring" ./cmd/starring || return 1
    go build -o "$tmp/starverify" ./cmd/starverify || return 1

    fv="21345678,31245678,41235678"
    minlen=$((40320 - 2 * 3)) # n! - 2|Fv|

    "$tmp/starring" -n 8 -fv "$fv" -print >"$tmp/ring.txt" || return 1
    want=$(cut -d' ' -f1 scripts/stream-smoke.sha256)
    got=$(sha256sum <"$tmp/ring.txt" | cut -d' ' -f1)
    if [ "$got" != "$want" ]; then
        echo "printed ring has SHA-256 $got, committed digest is $want" >&2
        return 1
    fi
    "$tmp/starring" -n 8 -fv "$fv" -save "$tmp/ring.srs" >/dev/null || return 1
    size=$(wc -c <"$tmp/ring.srs")
    if [ "$size" -gt 40400 ]; then
        echo "saved ring is $size bytes, want at most 40400 (one byte per vertex)" >&2
        return 1
    fi
    "$tmp/starverify" -ring "$tmp/ring.srs" -fv "$fv" -minlen "$minlen" || return 1
}

leg "stream smoke" stream_smoke || exit 1

# Path smoke: the longest s-t path pipeline end to end. Two S_8 paths
# from 12345678 with the stream smoke's faults, one to a target on the
# same side of the bipartition (40315 vertices) and one to a target on
# the other side (40314), must -print byte for byte what their digests
# in scripts/path-smoke.sha256 pin.
path_smoke() {
    local tmp to want got
    tmp=$(mktemp -d)
    go build -o "$tmp/starring" ./cmd/starring || return 1
    for to in 87654321 87654312; do
        "$tmp/starring" -n 8 -fv 21345678,31245678,41235678 \
            -path-from 12345678 -path-to "$to" -print >"$tmp/path.txt" || return 1
        want=$(grep -e "-path-to $to -print\$" scripts/path-smoke.sha256 | cut -d' ' -f1)
        got=$(sha256sum <"$tmp/path.txt" | cut -d' ' -f1)
        if [ -z "$want" ] || [ "$got" != "$want" ]; then
            echo "path to $to has SHA-256 $got, committed digest is ${want:-missing}" >&2
            return 1
        fi
    done
}

leg "path smoke" path_smoke || exit 1

# Serve smoke: the embedding service end to end, both halves of the
# SLO contract. A healthy server under the fault-churn load must hold
# the committed policy (watch exit 0); a server strangled to one
# admitted request must shed hard enough to fire it (watch exit 1),
# and an injected /chaos 500 must leave a flight bundle in which
# -postmortem reconstructs that request's trace by its client-supplied
# X-Star-Trace id: its block lists the request span and the failure.
serve_smoke() {
    local tmp pid addr i code
    tmp=$(mktemp -d)
    go build -o "$tmp/starserve" ./cmd/starserve || return 1
    go build -o "$tmp/starmon" ./cmd/starmon || return 1
    go build -o "$tmp/starring" ./cmd/starring || return 1

    # --- Healthy half -------------------------------------------------
    "$tmp/starserve" -addr 127.0.0.1:0 -min-n 4 -max-n 6 \
        >"$tmp/serve.log" 2>&1 &
    pid=$!
    addr=""
    for i in $(seq 1 300); do
        addr=$(sed -n 's#^starserve listening on http://\([^ ]*\)$#\1#p' "$tmp/serve.log")
        if [ -n "$addr" ] && grep -q '^pools warm' "$tmp/serve.log"; then
            break
        fi
        addr=""
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "starserve never warmed up:" >&2
        cat "$tmp/serve.log" >&2
        kill "$pid" 2>/dev/null
        return 1
    fi

    # Warm pools must report ready, and the exposition must carry the
    # labeled RED families.
    curl -fsS "http://$addr/readyz" >/dev/null || { kill "$pid"; return 1; }

    # The ring as it arrives over real HTTP chunking must be the ring
    # starring -print writes after its three header lines.
    curl -fsS "http://$addr/ring?n=6&fv=213456" >"$tmp/ring-serve.txt" || { kill "$pid"; return 1; }
    "$tmp/starring" -n 6 -fv 213456 -print | tail -n +4 >"$tmp/ring-cli.txt"
    if ! cmp -s "$tmp/ring-serve.txt" "$tmp/ring-cli.txt"; then
        echo "/ring?n=6&fv=213456 differs from starring -n 6 -fv 213456 -print:" >&2
        cmp "$tmp/ring-serve.txt" "$tmp/ring-cli.txt" >&2
        kill "$pid" 2>/dev/null
        return 1
    fi

    "$tmp/starserve" -load -target "http://$addr" -load-n 6 -requests 120 \
        -concurrency 4 -ring-every 9 -seed 1 -out "$tmp/load.json" \
        >/dev/null || { kill "$pid"; return 1; }
    if ! "$tmp/starmon" -check-metrics "http://$addr/metrics" -want-label route; then
        kill "$pid" 2>/dev/null
        return 1
    fi

    # Watch the live server against the committed policy while more
    # churn (repairs in flight) runs in the background: must stay clean.
    local load_pid
    "$tmp/starserve" -load -target "http://$addr" -load-n 6 -requests 400 \
        -concurrency 2 -ring-every 9 -seed 2 >/dev/null 2>&1 &
    load_pid=$!
    "$tmp/starmon" -watch -attach "$addr" -rules scripts/slo-serve.json \
        -interval 1s -frames 4 >"$tmp/watch-ok.log"
    code=$?
    wait "$load_pid" 2>/dev/null
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
    if [ "$code" -ne 0 ]; then
        echo "healthy server violated the SLO policy (exit $code):" >&2
        cat "$tmp/watch-ok.log" >&2
        return 1
    fi

    # --- Overload half ------------------------------------------------
    "$tmp/starserve" -addr 127.0.0.1:0 -min-n 4 -max-n 4 \
        -max-inflight 1 -max-queue 0 -chaos -flight-dump "$tmp/flight" \
        >"$tmp/serve2.log" 2>&1 &
    pid=$!
    addr=""
    for i in $(seq 1 300); do
        addr=$(sed -n 's#^starserve listening on http://\([^ ]*\)$#\1#p' "$tmp/serve2.log")
        if [ -n "$addr" ] && grep -q '^pools warm' "$tmp/serve2.log"; then
            break
        fi
        addr=""
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "overload starserve never warmed up:" >&2
        cat "$tmp/serve2.log" >&2
        kill "$pid" 2>/dev/null
        return 1
    fi

    # Start the watch first and wait for its first scrape, so the shed
    # storm's counter deltas land between two frames it sees.
    local watch_pid
    "$tmp/starmon" -watch -attach "$addr" -rules scripts/slo-serve.json \
        -interval 1s -frames 5 >"$tmp/watch-fire.log" &
    watch_pid=$!
    for i in $(seq 1 100); do
        [ -s "$tmp/watch-fire.log" ] && break
        sleep 0.1
    done

    # 8 workers against one admitted slot: a 429 shed storm, plus
    # injected /chaos 500s riding along.
    "$tmp/starserve" -load -target "http://$addr" -load-n 4 -requests 400 \
        -concurrency 8 -chaos-every 10 -seed 3 >/dev/null 2>&1
    # A directly injected failure with a known trace id: admitted for
    # sure (the storm is over), 500s for sure, and gives -postmortem a
    # specific request to reconstruct.
    curl -sS -H 'X-Star-Trace: 00000000deadbeef' "http://$addr/chaos" >/dev/null

    wait "$watch_pid"
    code=$?
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
    if [ "$code" -ne 1 ]; then
        echo "overloaded server should fire the SLO policy (exit $code):" >&2
        cat "$tmp/watch-fire.log" >&2
        return 1
    fi
    grep -q 'FIRING' "$tmp/watch-fire.log" || {
        echo "watch never reported a FIRING transition:" >&2
        cat "$tmp/watch-fire.log" >&2
        return 1
    }

    # The 5xx auto-dump left a readable bundle; the post-mortem render
    # must reconstruct the injected request under its client trace id,
    # with its span and its failure in that trace's own block.
    if [ ! -f "$tmp/flight/flight-events.ndjson" ]; then
        echo "5xx never auto-dumped a flight bundle" >&2
        return 1
    fi
    "$tmp/starmon" -check-events "$tmp/flight/flight-events.ndjson" || return 1
    "$tmp/starmon" -postmortem "$tmp/flight" >"$tmp/postmortem.log" || return 1
    trace_block_lists "$tmp/postmortem.log" '^trace 00000000deadbeef:' serve.op.request || {
        echo "postmortem block for trace 00000000deadbeef lacks its serve.op.request span or obs.flight.error event:" >&2
        cat "$tmp/postmortem.log" >&2
        return 1
    }
}

leg "serve smoke" serve_smoke || exit 1

# Benchmarks: one iteration of every Go benchmark, so none rots
# unrun. Their numbers are not gated; perfbench's are, below.
leg "benchmarks" go test -run '^$' -bench . -benchtime 1x ./... || exit 1

# Perf gate: the benchmark of record against its committed baseline.
# starbench runs every BENCHMARK.json workload at five seeds and fails
# when a median over the seeds is worse than the baseline's by more
# than the metric's bound (see README "Profiling & regression gate").
leg "perf gate" go run ./cmd/starbench || exit 1

# Fuzz smoke: one target per invocation (the go tool's -fuzz accepts a
# single match), a few seconds each. These catch regressions in input
# handling and, for FuzzEmbedRing, in the embedding pipeline itself;
# FuzzRingStreamReference pits the ring verifier — its per-vertex
# iterator form and its run path, FeedRun over the slice in one run,
# in 24-vertex runs and in runs of a fuzzed stride — against a
# reference that shares no code with the permutation kernel, FuzzVertexIndex
# holds the verifier's index steps to its from-scratch recomputation,
# FuzzPatternOps holds the word-packed substar pattern to its
# per-position reference, FuzzBlockSteps holds a routed block's
# step-word replay to the canonical search's path, and both table
# reads (the fault-free path and the one-fault detour) to the same
# search, FuzzRepairSequence repairs a plan through an arbitrary
# fault-arrival order, verifying the ring after every call (rebuilds
# route through both tables, splices read the detour table) and
# holding RingAt and OnRing at sampled positions to the cursor, and
# FuzzLocate holds the block lookup through a ring's refinement record
# (superring.Tree) to a scan of the flat ring, over random dimensions,
# partition positions, fault sets, chains and Exclude.
fuzz_smoke() {
    local pkg="$1" target="$2"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
}

leg "fuzz perm/FuzzParse" fuzz_smoke ./internal/perm FuzzParse || exit 1
leg "fuzz perm/FuzzCodeOps" fuzz_smoke ./internal/perm FuzzCodeOps || exit 1
leg "fuzz substar/FuzzPatternOps" fuzz_smoke ./internal/substar FuzzPatternOps || exit 1
leg "fuzz ringio/FuzzReadBinary" fuzz_smoke ./internal/ringio FuzzReadBinary || exit 1
leg "fuzz ringio/FuzzReadBinaryStream" fuzz_smoke ./internal/ringio FuzzReadBinaryStream || exit 1
leg "fuzz ringio/FuzzWriteBinaryStream" fuzz_smoke ./internal/ringio FuzzWriteBinaryStream || exit 1
leg "fuzz core/FuzzEmbedRing" fuzz_smoke ./internal/core FuzzEmbedRing || exit 1
leg "fuzz core/FuzzRepairSequence" fuzz_smoke ./internal/core FuzzRepairSequence || exit 1
leg "fuzz superring/FuzzLocate" fuzz_smoke ./internal/superring FuzzLocate || exit 1
leg "fuzz check/FuzzRingStreamReference" fuzz_smoke ./internal/check FuzzRingStreamReference || exit 1
leg "fuzz check/FuzzVertexIndex" fuzz_smoke ./internal/check FuzzVertexIndex || exit 1
leg "fuzz pathsearch/FuzzBlockSteps" fuzz_smoke ./internal/pathsearch FuzzBlockSteps || exit 1
leg "fuzz serve/FuzzServeRequest" fuzz_smoke ./internal/serve FuzzServeRequest || exit 1

echo "==> ci.sh: all legs passed"
