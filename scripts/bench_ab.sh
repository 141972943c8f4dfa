#!/usr/bin/env bash
# A/B the repository benchmark: a parent revision against the working tree.
#
#   scripts/bench_ab.sh <parent-rev> <workload> [pairs] [seconds]
#
# Builds benchmark/ twice, --offline, each side in its own CARGO_TARGET_DIR
# under target/bench_ab/: once from <parent-rev> (exported with
# `git archive`, so no worktree is registered in .git), once from the
# working tree. Then runs `pairs` (default 10) pairs of untraced
# (`--trace 0`) runs of `seconds` each (default: BENCHMARK.json's
# run_seconds). Pair i runs both sides with seed i; the side that goes
# first alternates from pair to pair.
#
# For every end-to-end metric in BENCHMARK.json it prints each side's
# median and quartiles, the change of the medians, how many pairs the
# working tree won (ties win for neither), and whether the difference
# passes the rule for claiming a gain: the working tree wins at least 9
# pairs in 10 and the medians differ by more than the parent's
# interquartile range. Last, it says in how many pairs the two sides
# printed the same `deterministic` line.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <parent-rev> <workload> [pairs] [seconds]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 4 ] || usage
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
case "$pairs$seconds" in *[!0-9]*) usage ;; esac

sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
    echo "bench_ab: unknown revision $rev" >&2
    exit 2
}
root=target/bench_ab
src="$root/src-$sha"
if [ ! -d "$src" ]; then
    mkdir -p "$src.tmp"
    git archive --format=tar "$sha" | tar -x -C "$src.tmp"
    mv "$src.tmp" "$src"
fi

# Cargo prunes a stale entry from the committed benchmark/Cargo.lock when
# it builds the working tree's benchmark; put the file back on any exit.
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock && rm -f "$lock_copy"' EXIT

build() { # <manifest-dir> <target-dir>
    echo "==> building $1/benchmark" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$src" "$root/parent"
build . "$root/work"
parent_bin="$root/parent/release/regvault-benchmark"
work_bin="$root/work/release/regvault-benchmark"

out="$root/$workload-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
run() { # <side> <seed>
    local bin="${parent_bin}"
    [ "$1" = work ] && bin="${work_bin}"
    "$bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 \
        > "$out/$1-$2.txt"
    tail -n 1 "$out/$1-$2.txt" >> "$out/$1.jsonl"
}
for i in $(seq 1 "$pairs"); do
    echo "==> pair $i/$pairs (seed $i)" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i"
        run work "$i"
    else
        run work "$i"
        run parent "$i"
    fi
done

python3 - "$out" "$workload" "$rev" <<'PY'
import json, statistics, sys

out, workload, rev = sys.argv[1:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
sides = {
    side: [json.loads(line) for line in open(f"{out}/{side}.jsonl")]
    for side in ("parent", "work")
}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))

n = len(sides["parent"])
print(f"{workload}: {rev} (parent) vs working tree, {n} alternating pairs")
print(f"{'metric':<20} {'parent q1/med/q3':>32} {'work q1/med/q3':>32} {'change':>8} {'wins':>6}  claim")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    w = [r["metrics"][name]["value"] for r in sides["work"]]
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, w))
    pq, wq = quartiles(p), quartiles(w)
    change = (wq[1] / pq[1] - 1) * 100 if pq[1] else 0.0
    gain = (wq[1] - pq[1]) if higher else (pq[1] - wq[1])
    claim = "yes" if wins * 10 >= 9 * n and gain > pq[2] - pq[0] else "no"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<20} {fmt(pq):>32} {fmt(wq):>32} {change:>+7.1f}% {wins:>3}/{n}  {claim}")
def deterministic(side, seed):
    lines = open(f"{out}/{side}-{seed}.txt").read().splitlines()
    return [l for l in lines if l.startswith("deterministic ")]
same = sum(deterministic("parent", i) == deterministic("work", i) for i in range(1, n + 1))
print(f"deterministic line identical in {same}/{n} pairs")
print(f"raw outputs: {out}")
PY
