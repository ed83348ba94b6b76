#!/usr/bin/env bash
# Hermetic verification: the workspace must build and test with zero network
# access and zero external crates. Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

# ---- guard: no non-path dependency may reappear in any workspace manifest --
# Legitimate dependency lines name a workspace crate (`workspace = true`) or
# an explicit `path = "..."`. Anything with `version = "..."`, a bare version
# string, `git = `, or `registry = ` would reintroduce a network fetch.
fail=0
while IFS= read -r manifest; do
    # strip comments, then keep only lines inside [*dependencies*] sections
    bad=$(awk '
        /^[[:space:]]*#/ { next }
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && NF {
            line = $0
            sub(/#.*/, "", line)
            if (line ~ /^\[/) next
            if (line !~ /=/) next
            if (line ~ /workspace[[:space:]]*=[[:space:]]*true/) next
            if (line ~ /path[[:space:]]*=/) next
            print FILENAME ": " line
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "ERROR: non-path dependency found:" >&2
        echo "$bad" >&2
        fail=1
    fi
done < <(find . -path ./target -prune -o -name Cargo.toml -print)

if [ "$fail" -ne 0 ]; then
    echo "verify.sh: the build must stay hermetic — declare new code as a" >&2
    echo "workspace path crate instead of a crates.io dependency." >&2
    exit 1
fi
echo "dependency guard: OK (path-only workspace)"

# ---- build + test fully offline, with warnings denied ----------------------
# The workspace must stay warning-free: a new dead-code or unused-import
# warning is a review comment waiting to happen, so it fails verification.
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline
RUSTFLAGS="-D warnings" cargo test --workspace -q --offline

# The benchmark (perfbench/, a package with its own workspace) calls the
# public API by path; building it here makes an API change that breaks the
# benchmark fail verification instead of the next benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
echo "benchmark build: OK (perfbench builds against the current API)"

smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

# ---- workspace invariant lint ----------------------------------------------
# hisres-lint v2: a lexer + recursive-descent parser + workspace call graph.
# Token rules still police per-line invariants (atomic writes, determinism,
# float-eq, pool-only threading); the graph rules (panic-reachability,
# no-hot-alloc-reachable, durability-order) follow calls across crates from
# the serving/ingest/distributed entry set to the actual sink. --deny-all
# escalates warnings; the tree must be clean AND every lint:allow must still
# be load-bearing (stale suppressions are diagnostics too). The whole
# analysis — lex, parse, call graph, reachability — has a 10 s budget.
lint=target/release/hisres-lint
lint_start=$(date +%s)
"$lint" --deny-all
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 10 ]; then
    echo "ERROR: hisres-lint took ${lint_elapsed}s — over the 10s budget" >&2
    exit 1
fi
echo "invariant lint: OK (hisres-lint --deny-all clean in ${lint_elapsed}s, budget 10s)"

# The JSON rendering is a stable schema for downstream tooling: emit a
# report, then re-validate it.
"$lint" --deny-all --json --out "$smoke/lint.json"
"$lint" --check "$smoke/lint.json"
if ! grep -qF '"schema":"hisres-lint/v2"' "$smoke/lint.json"; then
    echo "ERROR: lint report does not carry the hisres-lint/v2 schema tag" >&2
    exit 1
fi
echo "invariant lint JSON: OK (schema-checked hisres-lint/v2 report)"

# The lint must actually catch violations: the bad fixture tree carries one
# violation per rule and must fail with exact file:line diagnostics.
if bad_out=$("$lint" --root crates/lint/tests/fixtures/bad --deny-all 2>&1); then
    echo "ERROR: hisres-lint passed the bad fixture tree — rules are dead" >&2
    exit 1
fi
for needle in \
    'crates/core/src/serve.rs:4:' \
    'crates/comms/src/frame.rs:4:' \
    'crates/comms/src/frame.rs:5:' \
    'crates/core/src/dist.rs:4:' \
    'crates/core/src/ingest.rs:4:' \
    'crates/util/src/wal.rs:4:' \
    'crates/nn/src/fastpath.rs:3:' \
    'crates/nn/src/fastpath.rs:4:' \
    'crates/nn/src/fastpath.rs:5:' \
    'panic-reachability' \
    'no-hot-alloc-reachable' \
    'atomic-writes-only' \
    'pool-only-threading' \
    'determinism' \
    'no-debug-leftovers' \
    'float-eq' \
    'lint-allow-syntax'; do
    if ! grep -qF "$needle" <<<"$bad_out"; then
        echo "ERROR: bad-fixture lint output is missing $needle:" >&2
        echo "$bad_out" >&2
        exit 1
    fi
done
echo "invariant lint fixtures: OK (bad tree fails with per-rule diagnostics)"

# Each graph rule has its own fixture tree where the violation is invisible
# at token level: the sink sits in a different file (or crate) than the
# entry point and only the call graph connects them. Every tree must fail
# with the exact diagnostic position AND the entry-to-sink chain.
check_graph_fixture() {
    local tree=$1; shift
    local out
    if out=$("$lint" --root "crates/lint/tests/fixtures/$tree" --deny-all 2>&1); then
        echo "ERROR: hisres-lint passed the $tree fixture tree — the graph rule is dead" >&2
        exit 1
    fi
    for needle in "$@"; do
        if ! grep -qF "$needle" <<<"$out"; then
            echo "ERROR: $tree lint output is missing $needle:" >&2
            echo "$out" >&2
            exit 1
        fi
    done
}
check_graph_fixture bad_reach \
    'crates/graph/src/cmp.rs:5:10: error[panic-reachability]' \
    'chain: core::serve::handle → graph::cmp::pick → slice-index-without-guard'
check_graph_fixture bad_hot \
    'crates/nn/src/scratch.rs:4:5: error[no-hot-alloc-reachable]' \
    'chain: nn::fastpath::forward_nograd → nn::scratch::grow → vec!'
check_graph_fixture bad_durability \
    'crates/util/src/wal.rs:7:5: error[durability-order]' \
    'chain: util::wal::append → write_all@6 → reply@7' \
    'crates/util/src/fsio.rs:8:7: error[durability-order]' \
    'chain: util::fsio::atomic_write → write_all@8 → ∅ rename'
echo "invariant lint graph fixtures: OK (each graph rule fails its tree with a pinned chain)"

# ---- crash-resume smoke test -----------------------------------------------
# Train 2 epochs saving training state, then resume for 2 more; the final
# model checkpoint must be byte-identical to a straight 4-epoch run.
bin=target/release/hisres
"$bin" generate --dataset icews14s-syn --out "$smoke/data" >/dev/null
common=(--data "$smoke/data" --dim 8 --epochs 4 --patience 0 --quiet)
"$bin" train "${common[@]}" --out "$smoke/straight.ckpt" 2>/dev/null
"$bin" train --data "$smoke/data" --dim 8 --epochs 2 --patience 0 --quiet \
    --out "$smoke/partial.ckpt" --state "$smoke/state.ckpt" 2>/dev/null
"$bin" train "${common[@]}" --out "$smoke/resumed.ckpt" \
    --resume "$smoke/state.ckpt" 2>/dev/null
if ! cmp -s "$smoke/straight.ckpt" "$smoke/resumed.ckpt"; then
    echo "ERROR: resumed training (2+2 epochs) is not bit-identical to a" >&2
    echo "straight 4-epoch run — deterministic resume is broken." >&2
    exit 1
fi
echo "crash-resume smoke test: OK (2+2 epochs == 4 epochs, byte-identical)"

# ---- serve smoke test -------------------------------------------------------
# Drive the JSONL serving loop end to end over the checkpoint trained above:
# a valid query, malformed JSON, an out-of-range id, an OOV name, and a
# zero-budget request must produce structured responses (typed error kinds,
# a `"degraded":true` answer) and a final stats block, with exit code 0.
# The load itself runs with injected transient read faults to exercise the
# bounded-retry path.
serve_out=$(printf '%s\n' \
    '{"s": 3, "r": 1, "topk": 3, "id": "q1"}' \
    'this is not json' \
    '{"s": 99999, "r": 1}' \
    '{"s": "NoSuchEntity", "r": 1}' \
    '{"s": 3, "r": 1, "budget_ms": 0}' \
    '{"cmd": "stats"}' \
    | "$bin" serve --model "$smoke/straight.ckpt" --data "$smoke/data" \
        --inject-load-faults 2 --load-retries 3 2>/dev/null)
for needle in \
    '"id":"q1"' \
    '"kind":"bad_json"' \
    '"kind":"entity_out_of_range"' \
    '"kind":"unknown_entity"' \
    '"degraded":true' \
    '"reason":"budget"' \
    '"stats":{"requests":6' \
    '"p50_ms"'; do
    if ! grep -qF "$needle" <<<"$serve_out"; then
        echo "ERROR: serve smoke test output is missing $needle:" >&2
        echo "$serve_out" >&2
        exit 1
    fi
done
echo "serve smoke test: OK (typed errors, budget degradation, stats, retried load)"

# ---- concurrent serve smoke test --------------------------------------------
# Two *simultaneous* TCP clients against the concurrent front end: each
# tags its requests with its own ids, and every reply must come back on
# the right connection, in request order. A third connection then issues
# {"cmd":"shutdown"} and the server process must exit cleanly.
"$bin" serve --model "$smoke/straight.ckpt" --data "$smoke/data" \
    --listen 127.0.0.1:0 --workers 2 --max-conns 3 \
    2>"$smoke/serve_err.log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$smoke/serve_err.log")
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "ERROR: concurrent serve never reported its listen port:" >&2
    cat "$smoke/serve_err.log" >&2
    exit 1
fi
run_client() {
    local tag=$1
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf '{"s": 1, "r": 0, "id": "%s-1"}\n{"s": 2, "r": 1, "id": "%s-2"}\n' \
        "$tag" "$tag" >&3
    head -n 2 <&3
    exec 3>&- 3<&-
}
run_client a >"$smoke/client_a.out" &
a_pid=$!
run_client b >"$smoke/client_b.out" &
b_pid=$!
wait "$a_pid" "$b_pid"
for tag in a b; do
    other=$([ "$tag" = a ] && echo b || echo a)
    out="$smoke/client_$tag.out"
    for needle in "\"id\":\"$tag-1\"" "\"id\":\"$tag-2\""; do
        if ! grep -qF "$needle" "$out"; then
            echo "ERROR: concurrent client $tag is missing its reply $needle:" >&2
            cat "$out" >&2
            exit 1
        fi
    done
    if grep -qF "\"id\":\"$other-" "$out"; then
        echo "ERROR: client $tag received client $other's replies (cross-wired):" >&2
        cat "$out" >&2
        exit 1
    fi
done
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf '{"cmd": "shutdown"}\n' >&3
if ! head -n 1 <&3 | grep -qF '"shutdown":true'; then
    echo "ERROR: shutdown command was not acknowledged" >&2
    exit 1
fi
exec 3>&- 3<&-
if ! wait "$serve_pid"; then
    echo "ERROR: concurrent serve exited non-zero after shutdown" >&2
    cat "$smoke/serve_err.log" >&2
    exit 1
fi
if ! grep -qF "concurrent front end: 2 worker(s)" "$smoke/serve_err.log"; then
    echo "ERROR: serve did not start the concurrent front end:" >&2
    cat "$smoke/serve_err.log" >&2
    exit 1
fi
echo "concurrent serve smoke test: OK (2 simultaneous clients, no cross-wiring, clean shutdown)"

# ---- thread-count determinism smoke test ------------------------------------
# The data-parallel kernel layer must never change results: training the
# same model at 1 and 4 worker threads must produce byte-identical
# checkpoints. --dim 20 makes the gradient GEMM run a full 16-wide
# register tile and a 4-wide tail.
HISRES_THREADS=1 "$bin" train --data "$smoke/data" --dim 20 --epochs 2 \
    --patience 0 --quiet --out "$smoke/t1.ckpt" 2>/dev/null
HISRES_THREADS=4 "$bin" train --data "$smoke/data" --dim 20 --epochs 2 \
    --patience 0 --quiet --out "$smoke/t4.ckpt" 2>/dev/null
if ! cmp -s "$smoke/t1.ckpt" "$smoke/t4.ckpt"; then
    echo "ERROR: training at HISRES_THREADS=1 vs =4 produced different" >&2
    echo "checkpoints — the parallel kernels are not deterministic." >&2
    exit 1
fi
# The same at a learning rate that diverges at once: the rollback guard
# fires over and over, so NaN and ±Inf run through every grad-mode kernel.
HISRES_THREADS=1 "$bin" train --data "$smoke/data" --dim 20 --epochs 2 \
    --patience 0 --guard rollback --lr 1e30 --quiet --out "$smoke/n1.ckpt" 2>/dev/null
HISRES_THREADS=4 "$bin" train --data "$smoke/data" --dim 20 --epochs 2 \
    --patience 0 --guard rollback --lr 1e30 --quiet --out "$smoke/n4.ckpt" 2>/dev/null
if ! cmp -s "$smoke/n1.ckpt" "$smoke/n4.ckpt"; then
    echo "ERROR: diverging training (--guard rollback --lr 1e30) at" >&2
    echo "HISRES_THREADS=1 vs =4 produced different checkpoints." >&2
    exit 1
fi
echo "thread determinism smoke test: OK (1-thread == 4-thread checkpoint, also diverging)"

# ---- online ingestion crash-recovery smoke test ------------------------------
# Serve with a live WAL-backed ingest session, stream ingest batches at it,
# SIGKILL the server mid-stream, restart it over the same WAL, replay the
# client's stream (already-durable batches must come back as duplicates),
# and demand the recovered server's query scores match an uninterrupted
# reference run exactly.
ingest_line() {
    printf '{"cmd":"ingest","seq":%d,"quads":[[%d,0,%d]]}\n' \
        "$1" "$(( $1 % 5 ))" "$(( ($1 + 1) % 5 ))"
}
start_ingest_serve() {
    # $1: WAL path, $2: stderr log. Sets ingest_pid and ingest_port.
    "$bin" serve --model "$smoke/straight.ckpt" --data "$smoke/data" \
        --listen 127.0.0.1:0 --wal "$1" --snapshot-every 2 2>"$2" &
    ingest_pid=$!
    ingest_port=""
    for _ in $(seq 1 100); do
        ingest_port=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$2")
        [ -n "$ingest_port" ] && break
        sleep 0.1
    done
    if [ -z "$ingest_port" ]; then
        echo "ERROR: ingest serve never reported its listen port:" >&2
        cat "$2" >&2
        exit 1
    fi
}

# Reference run: six batches, a query, a clean shutdown.
start_ingest_serve "$smoke/ref.wal" "$smoke/ingest_ref.log"
exec 3<>"/dev/tcp/127.0.0.1/$ingest_port"
for seq in 1 2 3 4 5 6; do
    ingest_line "$seq" >&3
    if ! head -n 1 <&3 | grep -qF '"ingest":"applied"'; then
        echo "ERROR: reference ingest seq $seq was not applied" >&2
        exit 1
    fi
done
printf '{"s": 3, "r": 1, "topk": 5, "id": "qref"}\n{"cmd": "shutdown"}\n' >&3
ref_preds=$(head -n 2 <&3 | grep -o '"predictions":\[[^]]*\]' || true)
exec 3>&- 3<&-
wait "$ingest_pid"
if [ -z "$ref_preds" ]; then
    echo "ERROR: reference ingest run produced no predictions" >&2
    exit 1
fi

# Crash run: three acknowledged batches, a fourth racing a SIGKILL.
start_ingest_serve "$smoke/crash.wal" "$smoke/ingest_crash.log"
exec 3<>"/dev/tcp/127.0.0.1/$ingest_port"
for seq in 1 2 3; do
    ingest_line "$seq" >&3
    head -n 1 <&3 >/dev/null
done
ingest_line 4 >&3
kill -9 "$ingest_pid"
wait "$ingest_pid" 2>/dev/null || true
exec 3>&- 3<&- || true

# Restart over the same WAL: the session must announce its recovery, the
# replayed stream must be applied-or-deduplicated, and the query must be
# byte-identical to the uninterrupted reference.
start_ingest_serve "$smoke/crash.wal" "$smoke/ingest_recover.log"
if ! grep -q "ingest session open:" "$smoke/ingest_recover.log"; then
    echo "ERROR: restarted serve did not report its ingest recovery:" >&2
    cat "$smoke/ingest_recover.log" >&2
    exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$ingest_port"
for seq in 1 2 3 4 5 6; do
    ingest_line "$seq" >&3
    reply=$(head -n 1 <&3)
    if ! grep -qE '"ingest":"(applied|duplicate)"' <<<"$reply"; then
        echo "ERROR: replayed ingest seq $seq was rejected after restart:" >&2
        echo "$reply" >&2
        exit 1
    fi
done
printf '{"s": 3, "r": 1, "topk": 5, "id": "qrec"}\n{"cmd": "stats"}\n{"cmd": "shutdown"}\n' >&3
recover_out=$(head -n 3 <&3)
exec 3>&- 3<&-
wait "$ingest_pid"
rec_preds=$(grep -o '"predictions":\[[^]]*\]' <<<"$recover_out" || true)
if [ "$ref_preds" != "$rec_preds" ]; then
    echo "ERROR: scores after kill -9 + restart differ from the" >&2
    echo "uninterrupted run:" >&2
    echo "  reference: $ref_preds" >&2
    echo "  recovered: $rec_preds" >&2
    exit 1
fi
if ! grep -qF '"applied_seq":6' <<<"$recover_out"; then
    echo "ERROR: recovered server stats never reached applied_seq 6:" >&2
    echo "$recover_out" >&2
    exit 1
fi
echo "ingest crash-recovery smoke test: OK (kill -9 mid-ingest, restart, byte-identical scores)"

# ---- same-host performance A/B ----------------------------------------------
# perfbench on the work tree against its base commit (HEAD when the tree
# has uncommitted changes, else HEAD^), in interleaved pairs on this
# host, so host speed cancels out. Fails when a run is incorrect, the
# failed share rises, or an end-to-end metric's median is worse than the
# base median by more than its BENCHMARK.json bound.
ab_start=$(date +%s)
python3 scripts/perf_ab.py
echo "perf A/B: done in $(( $(date +%s) - ab_start ))s"

echo "verify.sh: OK"
