#!/usr/bin/env bash
# Tier-1 verification for the hermetic, zero-external-dependency workspace.
#
# 1. Guards against dependency regressions: every `[dependencies]` /
#    `[dev-dependencies]` / `[build-dependencies]` entry in every
#    Cargo.toml must name a `milo-*` workspace crate. The workspace must
#    build on a clean machine with no network and no crates-io mirror.
# 2. Builds and tests fully offline, and type-checks every target
#    (benches, examples, binaries), so an API change cannot break a
#    bench that no later step compiles.
# 3. Smoke-runs the gemm bench in quick mode (MILO_BENCH_QUICK=1) and
#    checks the recorded baseline `results/BENCH_gemm_threads.json` is
#    emitted, is well-formed JSON and carries its derived
#    `speedup_bs16_threads4_vs_threads1`. With MILO_BENCH_JSON pointing at
#    the smoke directory, the harness's own `gemm.json` must parse too.
# 4. Fault-injection smoke: runs the corruption fuzz + recovery-path
#    drills under a fixed MILO_FAULT_SEED, and exercises `milo-cli check`
#    on a clean MOEM artifact, a truncated copy and a copy with one byte
#    appended (both damaged ones must fail with a nonzero exit, not a
#    panic: `check` fails exactly where loading would).
# 5. Telemetry smoke: quantizes and serves a tiny model with
#    MILO_TELEMETRY=trace + --trace-out, then validates both Chrome
#    traces with `milo-cli trace-check` (well-formed JSON, monotonic
#    timestamps, at least one span per instrumented stage). The
#    quantized MILO artifact is drilled like step 4's MOEM one:
#    `check` passes on it and fails on a truncated copy. A
#    second, one-layer model at scale 0.5 (d_model 128, so every
#    projection tiles at 128×128) is served the same way and its trace
#    must contain `pack.gemm.fused`: the fused W3A16 kernel runs end to
#    end.
# 6. Serving soaks: the seeded quick chaos soak (1000 requests, kill +
#    poison + slow faults, burst arrivals, deadlines) at seed 7, then the
#    full soak at seed 11, through the real server; the soak itself
#    asserts the invariants (no escaped panics, bounded queue, every
#    request resolved by deadline+ε, breakers recover) and exits nonzero
#    on the first violation.
# 7. Benchmark package tests: builds `perfbench/` (its own workspace,
#    path dependencies on crates/*) and runs its unit tests, so a change
#    to the engine API or the metric names the benchmark reads fails
#    here rather than at benchmark time.
# 8. Documentation: builds the workspace's rustdoc with warnings denied,
#    so a broken or ambiguous intra-doc link fails the check.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. Dependency guard -------------------------------------------------
# Walk each manifest; inside dependency sections, flag any dependency key
# that is not a milo-* crate. Keys are the first token of `name = ...` or
# `name.workspace = ...` lines.
while IFS= read -r manifest; do
    bad=$(awk '
        # Table-header form: [dependencies.foo] / [dev-dependencies."foo"]
        /^\[(workspace\.)?(dev-|build-)?dependencies\./ {
            name = $0
            sub(/^\[(workspace\.)?(dev-|build-)?dependencies\./, "", name)
            sub(/\].*$/, "", name)
            gsub(/"/, "", name)
            if (name !~ /^milo-/) print FILENAME ": " name
            in_deps = 0
            next
        }
        /^\[/ {
            in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/)
            next
        }
        # Inline form: foo = "1" / foo.workspace = true inside a deps section
        in_deps && /^[A-Za-z0-9_-]+(\.workspace)?[[:space:]]*=/ {
            split($0, parts, /[.=[:space:]]/)
            if (parts[1] !~ /^milo-/) print FILENAME ": " parts[1]
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "ERROR: non-workspace dependency found (the workspace must stay hermetic):"
        echo "$bad"
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path "./target/*")

if [ "$fail" -ne 0 ]; then
    echo "Dependency guard failed. Vendor the functionality instead of adding a crate."
    exit 1
fi
echo "ok: all Cargo.toml dependencies are milo-* workspace crates"

# --- 2. Offline build + test --------------------------------------------
cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo check --workspace --all-targets --offline
echo "ok: offline release build, test suite and all-targets check passed"

# --- 3. Bench smoke (quick mode) -----------------------------------------
# Run the gemm bench with the smoke configuration into a scratch baseline
# path so the committed results/BENCH_gemm_threads.json (full-config run)
# is not clobbered, and write the suite JSON into the scratch directory
# steps 4 and 5 also use; then validate both emitted files.
smoke_dir=$(mktemp -d /tmp/milo-check.XXXXXX)
smoke_json="$smoke_dir/baseline.json"
suite_json="$smoke_dir/gemm.json"
trap 'rm -rf "$smoke_dir"' EXIT
MILO_BENCH_QUICK=1 MILO_BENCH_BASELINE="$smoke_json" MILO_BENCH_JSON="$smoke_dir" \
    cargo bench --offline -p milo-bench --bench gemm >/dev/null

for f in "$smoke_json" "$suite_json"; do
    if [ ! -s "$f" ]; then
        echo "ERROR: bench smoke did not emit $f"
        exit 1
    fi
done
if command -v python3 >/dev/null 2>&1; then
    python3 - "$smoke_json" "$suite_json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("baseline", "host_threads", "derived"):
    assert key in doc, f"missing key: {key}"
assert doc["baseline"]["suite"] == "BENCH_gemm_threads"
assert doc["baseline"]["results"], "baseline has no results"
assert "speedup_bs16_threads4_vs_threads1" in doc["derived"], "missing derived speedup"
suite = json.load(open(sys.argv[2]))
assert suite["suite"] == "gemm", f"unexpected suite: {suite.get('suite')}"
assert suite["results"], "gemm suite has no results"
PY
else
    # Fallback without python3: sanity-grep the structure.
    grep -q '"suite":"BENCH_gemm_threads"' "$smoke_json"
    grep -q '"host_threads":' "$smoke_json"
    grep -q '"derived":{"speedup_bs16_threads4_vs_threads1":' "$smoke_json"
    grep -q '"suite":"gemm"' "$suite_json"
fi
echo "ok: quick-mode gemm bench emitted a well-formed threads baseline and suite JSON"

# --- 4. Fault-injection smoke ---------------------------------------------
# The seeded fault suites (corruption fuzz in milo-faults, recovery-path
# drills at the workspace level) under a pinned seed, so a failure here
# reproduces byte-for-byte.
MILO_FAULT_SEED=0x4d694c6f cargo test -q --offline -p milo-faults --test corruption >/dev/null
MILO_FAULT_SEED=0x4d694c6f cargo test -q --offline --test fault_injection >/dev/null
echo "ok: seeded fault-injection suites passed (MILO_FAULT_SEED=0x4d694c6f)"

# The integrity checker end to end: a clean artifact verifies; a
# truncated copy and a copy with trailing bytes are rejected with a
# nonzero exit and no panic, as the loader rejects them.
cli=target/release/milo-cli
"$cli" synth --model mixtral --scale 0.1 --layers 1 --out "$smoke_dir/ref.moem" >/dev/null
"$cli" check --artifact "$smoke_dir/ref.moem" >/dev/null
# Chop the last 32 bytes off (truncating the final layer section) —
# pure-shell corruption so this step needs no python3.
size=$(wc -c < "$smoke_dir/ref.moem")
head -c "$((size - 32))" "$smoke_dir/ref.moem" > "$smoke_dir/bad.moem"
if "$cli" check --artifact "$smoke_dir/bad.moem" >/dev/null 2>&1; then
    echo "ERROR: milo-cli check accepted a corrupted artifact"
    exit 1
fi
# Append one byte: every section still verifies, but the loader refuses
# the trailing data, so check must too.
{ cat "$smoke_dir/ref.moem"; printf 'x'; } > "$smoke_dir/trailing.moem"
if "$cli" check --artifact "$smoke_dir/trailing.moem" >/dev/null 2>&1; then
    echo "ERROR: milo-cli check accepted an artifact with trailing data"
    exit 1
fi
echo "ok: milo-cli check verifies clean artifacts and rejects truncated and trailing ones"

# --- 5. Telemetry smoke ----------------------------------------------------
# Quantize then serve a tiny model at full trace level, exporting Chrome
# traces, and validate each with the CLI's own checker. The required span
# lists name only stages guaranteed on the tiny-model path (the packed
# GEMM falls back to dense below the tile threshold, so pack.gemm spans
# are not demanded here).
"$cli" synth --model mixtral --scale 0.25 --layers 2 --out "$smoke_dir/tele.moem" >/dev/null
MILO_TELEMETRY=trace "$cli" quantize --model "$smoke_dir/tele.moem" \
    --method milo --iters 4 --sparse-rank 2 --out "$smoke_dir/tele.milo" \
    --trace-out "$smoke_dir/quantize_trace.json" >/dev/null
"$cli" check --artifact "$smoke_dir/tele.milo" >/dev/null
size=$(wc -c < "$smoke_dir/tele.milo")
head -c "$((size - 32))" "$smoke_dir/tele.milo" > "$smoke_dir/bad.milo"
if "$cli" check --artifact "$smoke_dir/bad.milo" >/dev/null 2>&1; then
    echo "ERROR: milo-cli check accepted a truncated MILO artifact"
    exit 1
fi
"$cli" trace-check --trace "$smoke_dir/quantize_trace.json" \
    --require quant.hqq,core.milo_compress,moe.forward,moe.layer,moe.attn,moe.ffn >/dev/null
MILO_TELEMETRY=trace "$cli" stats --model "$smoke_dir/tele.moem" \
    --compressed "$smoke_dir/tele.milo" --seqs 2 --seq-len 12 \
    --trace-out "$smoke_dir/stats_trace.json" >/dev/null
"$cli" trace-check --trace "$smoke_dir/stats_trace.json" \
    --require engine.forward,engine.layer,engine.attn,engine.ffn >/dev/null
# The tiny model above never reaches the packed kernel; this one packs
# every projection, so its forward passes run the fused GEMM.
"$cli" synth --model mixtral --scale 0.5 --layers 1 --out "$smoke_dir/fused.moem" >/dev/null
"$cli" quantize --model "$smoke_dir/fused.moem" --method milo --iters 4 --sparse-rank 2 \
    --out "$smoke_dir/fused.milo" >/dev/null
MILO_TELEMETRY=trace "$cli" stats --model "$smoke_dir/fused.moem" \
    --compressed "$smoke_dir/fused.milo" --seqs 2 --seq-len 12 \
    --trace-out "$smoke_dir/fused_trace.json" >/dev/null
"$cli" trace-check --trace "$smoke_dir/fused_trace.json" \
    --require engine.forward,pack.gemm.fused >/dev/null
echo "ok: telemetry traces validated for quantize and stats (MILO_TELEMETRY=trace);"
echo "    the fused INT3 kernel ran end to end (pack.gemm.fused traced);"
echo "    milo-cli check verifies the MILO artifact and rejects a truncated copy"

# --- 6. Serving soaks (quick and full profiles) ----------------------------
# Seeded requests through the serve layer with chaos faults; each run
# takes seconds and the driver fails on the first invariant violation,
# printing the seed so it reproduces exactly. The full profile drives
# the request lifecycle longer, at a second seed.
"$cli" soak --quick --seed 7 >/dev/null
echo "ok: quick serving soak held all invariants (seed 7)"
"$cli" soak --full --seed 11 >/dev/null
echo "ok: full serving soak held all invariants (seed 11)"

# --- 7. Benchmark package tests --------------------------------------------
cargo test -q --offline --release --manifest-path perfbench/Cargo.toml >/dev/null
echo "ok: perfbench builds against the workspace and its tests pass"

# --- 8. Documentation -------------------------------------------------------
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet
echo "ok: workspace docs build without warnings"
