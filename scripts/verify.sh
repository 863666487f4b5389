#!/bin/sh
# Tier-1 verification: everything here must pass offline, with no
# network access and no crates beyond the workspace itself.
#
#   scripts/verify.sh          build + full test suite + small repro
#   scripts/verify.sh --bench  additionally run the offline bench harness
#                              (writes BENCH_repro.json to the repo root)
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (twice: a racy pass must not hide)"
cargo test -q
cargo test -q

echo "==> clippy: no unwrap() in any workspace crate"
cargo clippy -q --workspace -- -D clippy::unwrap_used
echo "    ok"

echo "==> CLI contract: one flag parser, usage errors exit 2, --flag=value == --flag value"
./target/release/rdx --help | cmp - tests/golden/rdx_help.txt
for bin in rdx repro loadgen emit_study trace_check plan_scenario; do
    CODE=0
    "./target/release/$bin" --no-such-flag > /dev/null 2>&1 || CODE=$?
    [ "$CODE" = "2" ] || { echo "$bin --no-such-flag exited $CODE, want 2" >&2; exit 1; }
done
rm -rf /tmp/rd_verify_cli /tmp/rd_verify_cli_p1 /tmp/rd_verify_cli_p2
./target/release/emit_study /tmp/rd_verify_cli/tree --small net15 > /dev/null 2>&1
./target/release/rdx snap /tmp/rd_verify_cli/tree --out=/tmp/rd_verify_cli/a.rdsnap 2> /dev/null
./target/release/rdx snap /tmp/rd_verify_cli/tree -o /tmp/rd_verify_cli/b.rdsnap 2> /dev/null
cmp /tmp/rd_verify_cli/a.rdsnap /tmp/rd_verify_cli/b.rdsnap
./target/release/plan_scenario /tmp/rd_verify_cli_p1 --seed=42 > /dev/null
./target/release/plan_scenario /tmp/rd_verify_cli_p2 --seed 42 > /dev/null
diff -r /tmp/rd_verify_cli_p1 /tmp/rd_verify_cli_p2
rm -rf /tmp/rd_verify_cli /tmp/rd_verify_cli_p1 /tmp/rd_verify_cli_p2
echo "    rdx --help matches its golden file; all six binaries exit 2 on --no-such-flag"
# The offline build cannot enable a cargo feature, so code behind one
# never compiles here: no manifest may declare one, no source test one.
if grep -n -E '^\[features\]|required-features' Cargo.toml crates/*/Cargo.toml \
    || grep -rn --include='*.rs' 'cfg(feature' crates tests examples; then
    echo "code behind a cargo feature never builds offline" >&2
    exit 1
fi
echo "    no cargo features declared or tested"

echo "==> repro --small all (offline reproduction smoke test)"
./target/release/repro --small all > /dev/null
echo "    ok"

echo "==> parallel determinism spot check (RD_THREADS=4 vs 1)"
RD_THREADS=4 ./target/release/repro --small all > /tmp/rd_verify_par.txt
RD_THREADS=1 ./target/release/repro --small all > /tmp/rd_verify_seq.txt
cmp /tmp/rd_verify_par.txt /tmp/rd_verify_seq.txt
rm -f /tmp/rd_verify_par.txt /tmp/rd_verify_seq.txt
echo "    identical output at both thread counts"

echo "==> observability: rdx diag + trace JSONL validation"
./target/release/emit_study /tmp/rd_verify_study --small net15 > /dev/null
RD_TRACE_ZERO=1 RD_THREADS=1 ./target/release/rdx /tmp/rd_verify_study/net15 \
    summary --trace /tmp/rd_verify_t1.jsonl > /dev/null
RD_TRACE_ZERO=1 RD_THREADS=8 ./target/release/rdx /tmp/rd_verify_study/net15 \
    summary --trace /tmp/rd_verify_t8.jsonl > /dev/null
cmp /tmp/rd_verify_t1.jsonl /tmp/rd_verify_t8.jsonl
echo "    trace byte-identical at RD_THREADS=1 and 8 (timestamps zeroed)"
./target/release/trace_check /tmp/rd_verify_t1.jsonl
./target/release/rdx /tmp/rd_verify_study/net15 diag
rm -f /tmp/rd_verify_t1.jsonl /tmp/rd_verify_t8.jsonl

echo "==> profile determinism: collapsed stacks across thread counts"
RD_PROF_ZERO=1 RD_THREADS=1 ./target/release/repro --small table1 \
    --profile /tmp/rd_verify_p1.folded > /dev/null 2>&1
RD_PROF_ZERO=1 RD_THREADS=4 ./target/release/repro --small table1 \
    --profile /tmp/rd_verify_p4.folded > /dev/null 2>&1
cmp /tmp/rd_verify_p1.folded /tmp/rd_verify_p4.folded
[ -s /tmp/rd_verify_p1.folded ] || { echo "profile output is empty" >&2; exit 1; }
for stage in parse links instances classify; do
    grep -q "^$stage" /tmp/rd_verify_p1.folded \
        || { echo "profile is missing the $stage stage root" >&2; exit 1; }
done
rm -f /tmp/rd_verify_p1.folded /tmp/rd_verify_p4.folded
echo "    non-empty, stage-name roots, byte-identical at RD_THREADS=1 and 4"

echo "==> one span, three views: --timings rows vs folded roots vs trace span closes"
RD_THREADS=4 ./target/release/rdx /tmp/rd_verify_study/net15 summary --timings \
    --trace /tmp/rd_verify_views.jsonl --profile /tmp/rd_verify_views.folded \
    > /dev/null 2> /tmp/rd_verify_views.txt
STAGES=$(awk '/^stage / { on = 1; next } /^total / { on = 0 } on { print $1 }' \
    /tmp/rd_verify_views.txt)
[ -n "$STAGES" ] || { echo "--timings printed no stage rows" >&2; exit 1; }
for stage in $STAGES; do
    grep -q "^$stage [0-9]*\$" /tmp/rd_verify_views.folded \
        || { echo "stage $stage is not a root of the folded profile" >&2; exit 1; }
    CLOSES=$(grep -c "^{\"ev\":\"span_close\",\"name\":\"$stage\"," \
        /tmp/rd_verify_views.jsonl || true)
    [ "$CLOSES" = "1" ] \
        || { echo "stage $stage has $CLOSES span_close event(s) in the trace, want 1" >&2; exit 1; }
done
rm -f /tmp/rd_verify_views.txt /tmp/rd_verify_views.jsonl /tmp/rd_verify_views.folded
echo "    every --timings stage is a folded root with exactly one span_close"

echo "==> snapshot + query server round trip"
./target/release/rdx snap /tmp/rd_verify_study -o /tmp/rd_verify.rdsnap
./target/release/rdx serve /tmp/rd_verify.rdsnap --addr 127.0.0.1:0 \
    > /tmp/rd_verify_serve.txt &
SERVE_PID=$!
PORT=""
i=0
while [ $i -lt 50 ]; do
    PORT=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' /tmp/rd_verify_serve.txt)
    [ -n "$PORT" ] && break
    sleep 0.1
    i=$((i + 1))
done
[ -n "$PORT" ] || { echo "serve never printed its port" >&2; exit 1; }
curl -sf "http://127.0.0.1:$PORT/healthz" > /dev/null
curl -sf "http://127.0.0.1:$PORT/networks" > /dev/null
curl -sf "http://127.0.0.1:$PORT/metrics" | grep -q http_requests_total
curl -sf "http://127.0.0.1:$PORT/networks/net15" > /tmp/rd_verify_served.json
./target/release/rdx /tmp/rd_verify_study/net15 summary --json > /tmp/rd_verify_direct.json
cmp /tmp/rd_verify_served.json /tmp/rd_verify_direct.json
echo "    /networks/net15 byte-identical to direct analysis"
for pair in networks:networks networks/net15:net15 networks/net15/processes:net15_processes \
    instances:instances pathways:pathways diag:diag; do
    curl -sf "http://127.0.0.1:$PORT/${pair%%:*}" | cmp - "tests/golden/json/${pair#*:}.json"
done
curl -sf "http://127.0.0.1:$PORT//pathways" | cmp - tests/golden/json/pathways.json
curl -sf "http://127.0.0.1:$PORT/networks/net15/" | cmp - tests/golden/json/net15.json
echo "    served bodies byte-identical to tests/golden/json"

# Conditional GET: the snapshot's FNV trailer doubles as a strong ETag,
# so a revalidation with the served tag must come back 304.
ETAG=$(curl -sf -D - -o /dev/null "http://127.0.0.1:$PORT/networks/net15" \
    | tr -d '\r' | sed -n 's/^etag: //p')
[ -n "$ETAG" ] || { echo "served response carried no etag" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' \
    -H "if-none-match: $ETAG" "http://127.0.0.1:$PORT/networks/net15")
[ "$CODE" = "304" ] || { echo "expected 304 for If-None-Match $ETAG, got $CODE" >&2; exit 1; }
echo "    If-None-Match revalidation returned 304"

# Pipelined mixed-endpoint burst: loadgen exits non-zero if any response
# fails or comes back non-200, so this doubles as a correctness probe.
./target/release/loadgen "127.0.0.1:$PORT" --conns 2 --pipeline 4 \
    --duration-ms 500 --json > /tmp/rd_verify_loadgen.json
grep -q '"endpoints": \[' /tmp/rd_verify_loadgen.json \
    || { echo "loadgen --json carried no per-endpoint stats" >&2; exit 1; }
sed 's/^/    /' /tmp/rd_verify_loadgen.json
rm -f /tmp/rd_verify_loadgen.json

# Metrics contract: after the burst, every serve telemetry family the
# dashboards read must be present on /metrics (histograms and gauges are
# pre-registered at startup, counters appear at zero), and the live
# debug endpoints must respond with JSON.
curl -sf "http://127.0.0.1:$PORT/metrics" > /tmp/rd_verify_metrics.txt
for family in http_request_us_bucket http_cache_hit_total http_cache_miss_total \
    http_rejected_busy_total http_conn_age_ms_bucket loop_wakeups_total \
    loop_epoll_wait_us_bucket loop_wakeup_events_bucket loop_iter_us_bucket \
    loop_slab_live_hw loop_wheel_depth_hw loop_backpressure_engaged_total \
    rd_build_info process_uptime_seconds; do
    grep -q "^$family" /tmp/rd_verify_metrics.txt \
        || { echo "metrics contract: $family missing from /metrics" >&2; exit 1; }
done
rm -f /tmp/rd_verify_metrics.txt
echo "    metrics contract: all serve telemetry families present"
for ep in loop conns cache; do
    curl -sf "http://127.0.0.1:$PORT/admin/debug/$ep" | grep -q '^{' \
        || { echo "/admin/debug/$ep did not return JSON" >&2; exit 1; }
done
echo "    /admin/debug/{loop,conns,cache} respond with JSON"

# Hot reload: SIGHUP re-reads the snapshot file; the swapped-in corpus
# is the same bytes, so /networks/net15 must survive byte-identically.
kill -HUP "$SERVE_PID"
RELOADS=""
i=0
while [ $i -lt 50 ]; do
    RELOADS=$(curl -sf "http://127.0.0.1:$PORT/metrics" \
        | sed -n 's/^http_reload_ok_total //p')
    [ "${RELOADS:-0}" -ge 1 ] && break
    sleep 0.1
    i=$((i + 1))
done
[ "${RELOADS:-0}" -ge 1 ] || { echo "SIGHUP reload never completed" >&2; exit 1; }
curl -sf "http://127.0.0.1:$PORT/networks/net15" > /tmp/rd_verify_reloaded.json
cmp /tmp/rd_verify_served.json /tmp/rd_verify_reloaded.json
rm -f /tmp/rd_verify_reloaded.json
echo "    SIGHUP reload swapped the snapshot; body byte-identical pre/post"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
echo "    clean SIGTERM shutdown"

echo "==> chaos sweep: error-not-panic, deterministic diagnostics (500+100 trials)"
RD_THREADS=4 ./target/release/rdx chaos /tmp/rd_verify_study --seed 1 \
    > /tmp/rd_verify_chaos_t4.txt
RD_THREADS=1 ./target/release/rdx chaos /tmp/rd_verify_study --seed 1 \
    > /tmp/rd_verify_chaos_t1.txt
cmp /tmp/rd_verify_chaos_t4.txt /tmp/rd_verify_chaos_t1.txt
grep -q "invariant held: error-not-panic" /tmp/rd_verify_chaos_t1.txt
rm -f /tmp/rd_verify_chaos_t4.txt /tmp/rd_verify_chaos_t1.txt
echo "    zero panics; sweep stdout byte-identical at both thread counts"

echo "==> rdx watch: supervised reload, failure isolation, convergence (RD_THREADS=1 and 4)"
# One full daemon lifecycle per thread count: boot, publish a semantic
# change, survive a parse-fatal push on last-good (a reload request
# cannot clear it: the watcher is the only publisher), converge after
# the restore, then restart on the persisted snapshot and publish
# nothing. Served bodies land in $1/ so the two runs can be compared
# byte-for-byte afterwards.
# start_watch DIR THREADS LOG: boots `rdx watch` on DIR/configs and
# DIR/last-good.rdsnap, stdout to DIR/LOG; sets WATCH_PID and WPORT.
start_watch() {
    # RD_ERROR_BUDGET=0 makes any unparseable config fatal for its
    # network, which is what the stale-serving-last-good leg relies on.
    RD_THREADS="$2" RD_ERROR_BUDGET=0 ./target/release/rdx watch "$1/configs" \
        --addr 127.0.0.1:0 --snapshot "$1/last-good.rdsnap" \
        --poll-ms 50 --debounce-ms 100 --backoff-ms 100 --backoff-max-ms 400 \
        --degraded-after 2 --seed 1 > "$1/$3" 2>> "$1/err.txt" &
    WATCH_PID=$!
    WPORT=""
    i=0
    while [ $i -lt 100 ]; do
        WPORT=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$1/$3")
        [ -n "$WPORT" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$WPORT" ] || { echo "watch never printed its port" >&2; exit 1; }
}
watch_cycle() {
    WDIR="$1"
    THREADS="$2"
    rm -rf "$WDIR"
    mkdir -p "$WDIR"
    ./target/release/emit_study "$WDIR/configs" --small net15 > /dev/null
    start_watch "$WDIR" "$THREADS" out.txt
    # Liveness must answer 200 from the moment the socket exists,
    # whatever the health state machine says.
    curl -sf "http://127.0.0.1:$WPORT/healthz?live=1" > /dev/null
    curl -sf "http://127.0.0.1:$WPORT/healthz" | grep -q '"health": "fresh"' \
        || { echo "watch did not boot fresh" >&2; exit 1; }
    curl -sf "http://127.0.0.1:$WPORT/networks/net15" > "$WDIR/body_boot.json"

    # Semantic change: drop one router; the daemon must republish.
    cp "$WDIR/configs/net15/config1" "$WDIR/config1.orig"
    rm "$WDIR/configs/net15/config1"
    i=0
    while [ $i -lt 100 ]; do
        curl -sf "http://127.0.0.1:$WPORT/networks/net15" > "$WDIR/body_mut.json" || true
        if ! cmp -s "$WDIR/body_boot.json" "$WDIR/body_mut.json"; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    cmp -s "$WDIR/body_boot.json" "$WDIR/body_mut.json" \
        && { echo "watch never published the config change" >&2; exit 1; }
    curl -sf "http://127.0.0.1:$WPORT/healthz" | grep -q '"health": "fresh"' \
        || { echo "publish did not return the daemon to fresh" >&2; exit 1; }

    # Parse-fatal push: an invalid-UTF-8 config under a zero error
    # budget. The daemon must go non-fresh while still answering 200
    # from last-good, byte-identically.
    printf '\377\376 this is not a router config\n' > "$WDIR/configs/net15/config1"
    i=0
    while [ $i -lt 100 ]; do
        if curl -s "http://127.0.0.1:$WPORT/healthz" \
            | grep -q '"health": "stale-serving-last-good"\|"health": "degraded"'; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    curl -s "http://127.0.0.1:$WPORT/healthz" \
        | grep -q '"health": "stale-serving-last-good"\|"health": "degraded"' \
        || { echo "parse-fatal push never surfaced on /healthz" >&2; exit 1; }
    CODE=$(curl -s -o "$WDIR/body_stale.json" -w '%{http_code}' \
        "http://127.0.0.1:$WPORT/networks/net15")
    [ "$CODE" = "200" ] || { echo "query endpoint broke during failure: $CODE" >&2; exit 1; }
    cmp "$WDIR/body_mut.json" "$WDIR/body_stale.json" \
        || { echo "last-good body changed during failure" >&2; exit 1; }
    curl -sf "http://127.0.0.1:$WPORT/healthz?live=1" > /dev/null \
        || { echo "liveness probe failed during degradation" >&2; exit 1; }
    # No reload file backs the daemon's server, so a reload request is
    # refused and cannot report the failing daemon fresh.
    CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "http://127.0.0.1:$WPORT/admin/reload")
    [ "$CODE" = "409" ] || { echo "POST /admin/reload under watch answered $CODE" >&2; exit 1; }
    sleep 0.3
    curl -s "http://127.0.0.1:$WPORT/healthz" \
        | grep -q '"health": "stale-serving-last-good"\|"health": "degraded"' \
        || { echo "a reload request cleared the failing daemon's health" >&2; exit 1; }

    # Restore: the daemon must converge back to fresh, and a restored
    # config tree analyzes to the byte-identical boot body.
    cp "$WDIR/config1.orig" "$WDIR/configs/net15/config1"
    i=0
    while [ $i -lt 100 ]; do
        if curl -s "http://127.0.0.1:$WPORT/healthz" | grep -q '"health": "fresh"'; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    curl -sf "http://127.0.0.1:$WPORT/healthz" | grep -q '"health": "fresh"' \
        || { echo "watch never converged back to fresh after restore" >&2; exit 1; }
    i=0
    while [ $i -lt 100 ]; do
        curl -sf "http://127.0.0.1:$WPORT/networks/net15" > "$WDIR/body_restored.json" || true
        cmp -s "$WDIR/body_boot.json" "$WDIR/body_restored.json" && break
        sleep 0.1
        i=$((i + 1))
    done
    cmp "$WDIR/body_boot.json" "$WDIR/body_restored.json" \
        || { echo "restored configs did not reproduce the boot body" >&2; exit 1; }
    curl -sf "http://127.0.0.1:$WPORT/admin/debug/watch" | grep -q '"generation"' \
        || { echo "/admin/debug/watch did not render supervisor state" >&2; exit 1; }

    # Loadgen burst against the live daemon, exercising --connect-retries.
    ./target/release/loadgen "127.0.0.1:$WPORT" --conns 2 --pipeline 4 \
        --duration-ms 300 --connect-retries 5 > /dev/null

    kill -TERM "$WATCH_PID"
    wait "$WATCH_PID"
    # The persisted snapshot survived the whole cycle with no staging
    # remnants: the crash-safe writer cleans up or quarantines.
    [ -s "$WDIR/last-good.rdsnap" ] || { echo "persisted snapshot missing" >&2; exit 1; }
    [ ! -f "$WDIR/last-good.rdsnap.tmp" ] \
        || { echo "staging file leaked past shutdown" >&2; exit 1; }

    # Restart on the same snapshot and the unchanged tree: the served
    # corpus is current, so several polls later nothing was published.
    start_watch "$WDIR" "$THREADS" out_restart.txt
    sleep 1
    PUBLISHED=$(curl -sf "http://127.0.0.1:$WPORT/metrics" \
        | sed -n 's/^watch_publish_ok_total //p')
    [ "$PUBLISHED" = "0" ] \
        || { echo "restart on a current snapshot published ${PUBLISHED:-?} time(s)" >&2; exit 1; }
    curl -sf "http://127.0.0.1:$WPORT/networks/net15" > "$WDIR/body_restart.json"
    cmp "$WDIR/body_restored.json" "$WDIR/body_restart.json" \
        || { echo "restart served a different body" >&2; exit 1; }
    kill -TERM "$WATCH_PID"
    wait "$WATCH_PID"
}
watch_cycle /tmp/rd_verify_watch_t1 1
watch_cycle /tmp/rd_verify_watch_t4 4
for body in body_boot.json body_mut.json body_restored.json; do
    cmp "/tmp/rd_verify_watch_t1/$body" "/tmp/rd_verify_watch_t4/$body" \
        || { echo "watch $body differs between RD_THREADS=1 and 4" >&2; exit 1; }
done
rm -rf /tmp/rd_verify_watch_t1 /tmp/rd_verify_watch_t4
echo "    publish, stale-serving-last-good (reload refused), convergence and an idle restart verified; bodies identical at both thread counts"

echo "==> reconfiguration planning: seeded scenario, deterministic + independently checked"
./target/release/plan_scenario /tmp/rd_verify_plan --seed 42 > /dev/null
RD_THREADS=1 ./target/release/rdx /tmp/rd_verify_plan/current plan \
    /tmp/rd_verify_plan/target --json > /tmp/rd_verify_plan_t1.json
RD_THREADS=4 ./target/release/rdx /tmp/rd_verify_plan/current plan \
    /tmp/rd_verify_plan/target --json > /tmp/rd_verify_plan_t4.json
cmp /tmp/rd_verify_plan_t1.json /tmp/rd_verify_plan_t4.json
cmp /tmp/rd_verify_plan_t1.json tests/golden/json/plan.json
grep -q '"violation": {' /tmp/rd_verify_plan_t1.json \
    || { echo "seeded scenario no longer defeats the naive order" >&2; exit 1; }
./target/release/rdx /tmp/rd_verify_plan/current plan /tmp/rd_verify_plan/target \
    --check | sed 's/^/    /'
rm -rf /tmp/rd_verify_plan /tmp/rd_verify_plan_t1.json /tmp/rd_verify_plan_t4.json
echo "    plan bytes identical at RD_THREADS=1 and 4; every step re-verified"

echo "==> incremental re-analysis: delta refresh byte-identical to cold, within the cold wall"
./target/release/emit_study /tmp/rd_verify_incr --small > /dev/null 2>&1
T0=$(date +%s%N)
./target/release/rdx snap /tmp/rd_verify_incr -o /tmp/rd_verify_incr_cold.rdsnap > /dev/null
T1=$(date +%s%N)
COLD_MS=$(( (T1 - T0) / 1000000 ))
./target/release/rdx snap --info /tmp/rd_verify_incr_cold.rdsnap \
    > /tmp/rd_verify_incr_info.txt
grep -q "(manifest)" /tmp/rd_verify_incr_info.txt \
    || { echo "snap --info printed no manifest row" >&2; exit 1; }
# One-router change: the delta refresh must reuse the other 30 networks,
# and its output must be byte-identical to a cold re-run. The stanza goes
# before the config's `end` line, where the parser still reads, and the
# edit must change the analysis of net15 and of no other network (other
# networks' routers carry the same hostnames).
rm -rf /tmp/rd_verify_incr_pre
cp -R /tmp/rd_verify_incr /tmp/rd_verify_incr_pre
sed -i 's/^end$/interface Loopback99\n ip address 10.99.0.1 255.255.255.255\nend/' \
    /tmp/rd_verify_incr/net15/config1
./target/release/rdx /tmp/rd_verify_incr_pre diff /tmp/rd_verify_incr --networks \
    > /tmp/rd_verify_incr_diff.txt
[ "$(cat /tmp/rd_verify_incr_diff.txt)" = net15 ] || {
    echo "diff --networks after the net15 edit printed: $(cat /tmp/rd_verify_incr_diff.txt)" >&2
    exit 1
}
T0=$(date +%s%N)
./target/release/rdx snap /tmp/rd_verify_incr -o /tmp/rd_verify_incr_delta.rdsnap \
    --from /tmp/rd_verify_incr_cold.rdsnap > /dev/null 2> /tmp/rd_verify_incr_out.txt
T1=$(date +%s%N)
INCR_MS=$(( (T1 - T0) / 1000000 ))
# The other 30 networks splice through, and the changed one parses only
# the edited file: its other files come back from the seeding snapshot.
grep -qx "incremental: 30 network(s) reused, 1 recomputed, 1 file(s) reparsed" \
    /tmp/rd_verify_incr_out.txt \
    || { echo "delta refresh did not reuse 30 of 31 networks parsing one file" >&2; exit 1; }
./target/release/rdx snap /tmp/rd_verify_incr -o /tmp/rd_verify_incr_cold2.rdsnap > /dev/null
cmp /tmp/rd_verify_incr_delta.rdsnap /tmp/rd_verify_incr_cold2.rdsnap
# Wall guard, deliberately lenient against machine noise: a one-router
# refresh must not cost more than the cold run it replaces (the bench
# records the real speedup; this only catches the delta path degrading
# into a second cold path).
[ "$INCR_MS" -le "$COLD_MS" ] || {
    echo "one-router delta refresh (${INCR_MS} ms) slower than cold run (${COLD_MS} ms)" >&2
    exit 1
}
rm -rf /tmp/rd_verify_incr /tmp/rd_verify_incr_pre /tmp/rd_verify_incr_cold.rdsnap \
    /tmp/rd_verify_incr_cold2.rdsnap /tmp/rd_verify_incr_delta.rdsnap \
    /tmp/rd_verify_incr_out.txt /tmp/rd_verify_incr_info.txt /tmp/rd_verify_incr_diff.txt
echo "    delta snapshot byte-identical to cold re-run; ${INCR_MS} ms vs ${COLD_MS} ms cold"

rm -rf /tmp/rd_verify_study /tmp/rd_verify.rdsnap /tmp/rd_verify_serve.txt \
    /tmp/rd_verify_served.json /tmp/rd_verify_direct.json

if [ "${1:-}" = "--bench" ]; then
    # Stage-regression guards: remember the committed run's worst figure
    # for each guarded stage before repro --bench overwrites the file.
    # A budget is 3x that figure — generous enough for machine noise,
    # tight enough to catch a quadratic stage coming back: the config
    # lexer and parser, the external classifier, the instance-graph
    # classify pass, the serve cache build's /pathways render (its worst
    # figure is the full-scale one), and the snapshot load. The load is guarded by its own time, not by
    # its speedup over re-analysis, which falls whenever analysis gets
    # faster. A guard whose field the committed file lacks is skipped.
    # (The "bench_external" section deliberately doesn't match "external".)
    worst() { # <stage> <factor>: the largest "<stage>" figure times factor
        awk -F': ' -v key="\"$1\":" -v factor="$2" \
            'index($0, key) { v = $2 + 0; if (v > max) max = v }
            END { if (max > 0) printf "%.0f", max * factor }' BENCH_repro.json
    }
    BUDGETS=""
    SERVE_FLOOR=""
    if [ -f BENCH_repro.json ]; then
        for STAGE in parse external classify render:/pathways load_ms; do
            BUDGET=$(worst "$STAGE" 3)
            [ -z "$BUDGET" ] || BUDGETS="$BUDGETS $STAGE=$BUDGET"
        done
        # Same idea for the query server, inverted: the committed
        # bench_serve throughput sets a floor at one third — catches the
        # event loop regressing toward thread-per-connection-era numbers
        # without flapping on machine noise.
        SERVE_FLOOR=$(awk -F': ' '/"bench_serve":/ { inb = 1 }
            inb && /"throughput_rps":/ { printf "%.0f", ($2 + 0) / 3; exit }' \
            BENCH_repro.json)
    fi
    echo "==> repro --bench (stage timings, both scales, traced)"
    ./target/release/repro --bench --trace /tmp/rd_verify_bench.jsonl
    ./target/release/trace_check /tmp/rd_verify_bench.jsonl
    rm -f /tmp/rd_verify_bench.jsonl
    for GUARD in $BUDGETS; do
        STAGE=${GUARD%=*}
        BUDGET=${GUARD##*=}
        NEW=$(worst "$STAGE" 1)
        if [ "${NEW:-0}" -gt "$BUDGET" ]; then
            echo "$STAGE stage regression: ${NEW} ms exceeds the stored budget ${BUDGET} ms" >&2
            exit 1
        fi
        echo "    $STAGE stage ${NEW:-0} ms within budget ${BUDGET} ms"
    done
    if [ -n "$SERVE_FLOOR" ]; then
        NEW_RPS=$(awk -F': ' '/"bench_serve":/ { inb = 1 }
            inb && /"throughput_rps":/ { printf "%.0f", $2 + 0; exit }' \
            BENCH_repro.json)
        if [ "$NEW_RPS" -lt "$SERVE_FLOOR" ]; then
            echo "serve throughput regression: ${NEW_RPS} req/s is below the stored floor ${SERVE_FLOOR} req/s" >&2
            exit 1
        fi
        echo "    bench_serve ${NEW_RPS} req/s above floor ${SERVE_FLOOR} req/s"
    fi
fi

echo "verify: all checks passed"
