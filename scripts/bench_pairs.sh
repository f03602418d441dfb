#!/usr/bin/env bash
# Compares the end-to-end benchmark (`perfbench/`, as declared in
# BENCHMARK.json) between a base revision and the working tree, in
# alternating pairs under a fixed code-layout control.
#
# Usage: scripts/bench_pairs.sh BASE_REV [PAIRS=10] [SECONDS=25]
#
# 1. Exports BASE_REV with `git archive` into a temporary directory (no
#    worktree metadata is written to the repository).
# 2. Builds perfbench in both trees with CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1,
#    so code layout does not move the packed workloads by itself; each
#    tree gets its own CARGO_TARGET_DIR inside the temporary directory.
# 3. For every workload in BENCHMARK.json, runs seeds 1..PAIRS, one base
#    and one change run per seed, alternating which goes first (base
#    first on odd seeds), each for SECONDS with `--trace 0` and the
#    `--slo-ms` of BENCHMARK.json's command.
# 4. Prints, per workload and end-to-end metric: base median, change
#    median, base interquartile range, the pairs the change wins (by the
#    metric's `better`), and WORSE when the change's median is worse than
#    the base median by more than the metric's `bound`.
#
# Nothing is written under perfbench/ or to BENCHMARK.json; the temporary
# directory is removed on exit and no run is left behind. Needs python3.
# A full run takes about 2 × PAIRS × (SECONDS + setup) per workload.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/bench_pairs.sh BASE_REV [PAIRS=10] [SECONDS=25]" >&2
    exit 2
fi
base_rev=$1
pairs=${2:-10}
seconds=${3:-25}
command -v python3 >/dev/null 2>&1 || { echo "bench_pairs.sh needs python3" >&2; exit 2; }

tmp=$(mktemp -d /tmp/milo-pairs.XXXXXX)
child=
cleanup() {
    if [ -n "$child" ]; then
        kill "$child" 2>/dev/null || true
        wait "$child" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir -p "$tmp/base" "$tmp/runs" "$tmp/out"
git archive "$base_rev" | tar -x -C "$tmp/base"

for side in base change; do
    if [ "$side" = base ]; then tree=$tmp/base; else tree=$PWD; fi
    echo "building perfbench ($side)" >&2
    CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1 CARGO_TARGET_DIR="$tmp/target-$side" \
        cargo build --release --offline --quiet --manifest-path "$tree/perfbench/Cargo.toml"
done

read -r slo workloads < <(python3 - <<'PY'
import json
bench = json.load(open("BENCHMARK.json"))
cmd = bench["command"]
print(cmd[cmd.index("--slo-ms") + 1], " ".join(w["name"] for w in bench["workloads"]))
PY
)

# Runs one side at one seed; keeps the result line (the last line of
# standard output) of a successful run.
run_one() {
    local side=$1 workload=$2 seed=$3
    local stem=$tmp/runs/$workload.$side.$seed status=0
    "$tmp/target-$side/release/perfbench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --slo-ms "$slo" --out-dir "$tmp/out" \
        >"$stem.log" 2>"$stem.err" &
    child=$!
    wait "$child" || status=$?
    child=
    if [ "$status" -eq 0 ]; then
        tail -n 1 "$stem.log" >"$stem.json"
    else
        echo "  $workload seed $seed ($side) failed with exit $status: $(tail -n 1 "$stem.err")" >&2
    fi
}

for workload in $workloads; do
    for seed in $(seq 1 "$pairs"); do
        echo "$workload seed $seed/$pairs" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            run_one base "$workload" "$seed"
            run_one change "$workload" "$seed"
        else
            run_one change "$workload" "$seed"
            run_one base "$workload" "$seed"
        fi
    done
done

python3 - "$tmp/runs" "$pairs" <<'PY'
import json, math, os, statistics, sys

runs, pairs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))


def load(workload, side, seed):
    path = os.path.join(runs, f"{workload}.{side}.{seed}.json")
    if not os.path.exists(path):
        return None
    return {k: v["value"] for k, v in json.load(open(path))["metrics"].items()}


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


print(f"{'workload':<18} {'metric':<16} {'base med':>12} {'change med':>12} {'delta':>8} "
      f"{'base IQR':>10} {'wins':>7}  verdict")
for w in bench["workloads"]:
    name = w["name"]
    results = [(load(name, "base", s), load(name, "change", s)) for s in range(1, pairs + 1)]
    failed = sum(b is None for b, _ in results), sum(c is None for _, c in results)
    if any(failed):
        print(f"{name}: failed runs: base {failed[0]}, change {failed[1]} of {pairs}")
    for m in bench["end_to_end"]:
        metric, lower = m["name"], m["better"] == "lower"
        base = [b[metric] for b, _ in results if b is not None]
        change = [c[metric] for _, c in results if c is not None]
        if not base or not change:
            print(f"{name:<18} {metric:<16} no successful runs")
            continue
        wins = sum((c[metric] < b[metric]) if lower else (c[metric] > b[metric])
                   for b, c in results if b is not None and c is not None)
        q = quartiles(base)
        bmed, cmed = statistics.median(base), statistics.median(change)
        if bmed:
            rel = (cmed - bmed) / abs(bmed)
        else:
            rel = 0.0 if cmed == bmed else math.copysign(math.inf, cmed - bmed)
        worse = (rel if lower else -rel) > m["bound"]
        print(f"{name:<18} {metric:<16} {bmed:>12.6g} {cmed:>12.6g} {100 * rel:>+7.1f}% "
              f"{q[2] - q[0]:>10.4g} {wins:>3}/{pairs:<3}  {'WORSE' if worse else 'ok'}")
PY
