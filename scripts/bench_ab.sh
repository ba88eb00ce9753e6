#!/usr/bin/env bash
# Same-runner A/B wall gate: times BASE_REF against the working tree on
# the machine that runs it, for every workload and end-to-end metric
# that BENCHMARK.json names, and fails on a regression beyond its bound.
#
#   scripts/bench_ab.sh BASE_REF
#
# BASE_REF is checked out into a temporary git worktree. Each side runs
# its own benchmark/run.sh and builds into its own target/benchmark/.
# Per workload, PAIRS pairs of
#
#   benchmark/run.sh --workload W --seed S --seconds SECONDS_PER_RUN --trace 0
#
# run back to back, one process per side, with a new seed per pair and
# the side that goes first alternating. The script prints one row per
# (workload, metric): both medians, the head/base ratio and the base's
# interquartile range relative to its median. It exits non-zero when a
# process reports `correct: false` or when a median ratio is worse than
# the metric's bound. A row whose base IQR exceeds the bound is marked
# `unresolved`: on this runner that metric's noise is wider than the
# change the bound allows. Needs git, python3 and the Rust toolchain;
# all four workloads take about five minutes on a 2-vCPU machine.
set -euo pipefail

PAIRS=5
SECONDS_PER_RUN=5

base_ref=${1:?usage: scripts/bench_ab.sh BASE_REF}
root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base_ref^{commit}")
work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/base" "$base_sha"
mkdir "$work/out"
# Each side builds into its own target/benchmark/ (run.sh's default).
unset CARGO_TARGET_DIR
start=$(date +%s)

measure() { # side dir workload pair seed
    local log="$work/out/$1.$3.$4"
    if ! (cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$5" \
        --seconds "$SECONDS_PER_RUN" --trace 0) >"$log.out" 2>"$log.err"; then
        cat "$log.out" "$log.err" >&2
        echo "bench_ab: $1 $3 pair $4 exited non-zero" >&2
        exit 1
    fi
    tail -n 1 "$log.out" >"$log.json"
}

workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
echo "bench_ab: base $base_sha vs working tree, $PAIRS pairs x ${SECONDS_PER_RUN}s per workload"
for w in $workloads; do
    for ((p = 0; p < PAIRS; p++)); do
        seed=$((0xAB00 + p))
        if ((p % 2 == 0)); then
            measure base "$work/base" "$w" "$p" "$seed"
            measure head "$root" "$w" "$p" "$seed"
        else
            measure head "$root" "$w" "$p" "$seed"
            measure base "$work/base" "$w" "$p" "$seed"
        fi
    done
    echo "bench_ab: $w done ($(($(date +%s) - start))s)"
done

status=0
python3 - "$work/out" "$PAIRS" <<'EOF' || status=$?
import json, statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
failed = False
print(f"{'workload':<20} {'metric':<16} {'base median':>12} {'head median':>12} "
      f"{'ratio':>7} {'base IQR':>9}  verdict")
for w in (x["name"] for x in bench["workloads"]):
    runs = {}
    for side in ("base", "head"):
        runs[side] = [json.load(open(f"{out}/{side}.{w}.{p}.json")) for p in range(pairs)]
        for p, r in enumerate(runs[side]):
            if not r["correct"]:
                print(f"{side} {w} pair {p}: correct: false ({r['failed']} of "
                      f"{r['attempted']} checks failed)")
                failed = True
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        b, h = statistics.median(base), statistics.median(head)
        q1, _, q3 = statistics.quantiles(base, n=4)
        iqr = (q3 - q1) / b
        ratio = h / b
        worse = 1 - ratio if m["better"] == "higher" else ratio - 1
        verdict = []
        if worse > bound:
            verdict.append(f"WORSE than the {bound} bound")
            failed = True
        else:
            verdict.append("ok")
        if iqr > bound:
            verdict.append("unresolved")
        print(f"{w:<20} {name:<16} {b:>12.5g} {h:>12.5g} {ratio:>7.3f} {iqr:>8.1%}  "
              f"{', '.join(verdict)}")
sys.exit(1 if failed else 0)
EOF
echo "bench_ab: $(($(date +%s) - start))s wall"
exit $status
