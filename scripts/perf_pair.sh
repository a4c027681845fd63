#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree.
# Usage: scripts/perf_pair.sh <parent-rev> <workload> <seed>...
# Environment:
#   PERF_SECONDS   measured window per run (default: BENCHMARK.json run_seconds)
#   PERF_TRACE     0 or 1, passed as --trace (default 0)
#   PERF_PAIR_DIR  scratch directory (default: a fresh `mktemp -d`); it keeps
#                  the parent export, its target dir and every run's output
#
# The parent is exported with `git archive` and built with its own empty
# target dir: an export has old file mtimes, so a shared or copied target dir
# would pass newer artifacts from another tree off as fresh. For each seed the
# two sides run the BENCHMARK.json command back to back, and the side that
# goes first alternates from seed to seed. Each side runs from its own run
# directory, since the benchmark writes under `.bench_run/` where it runs.
# The summary gives, for every metric of the result line, each side's median
# and quartiles and how many pairs the working tree won, by the metric's
# "better" direction in BENCHMARK.json (lower for a metric not listed there).
# Exits 1 if any run failed or reported an incorrect result.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <parent-rev> <workload> <seed>..." >&2
  exit 2
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PARENT="$1"
WORKLOAD="$2"
shift 2
SEEDS=("$@")
SECS="${PERF_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")}"
TRACE="${PERF_TRACE:-0}"
DIR="${PERF_PAIR_DIR:-$(mktemp -d)}"
mkdir -p "$DIR"
DIR="$(cd "$DIR" && pwd)"

echo "==> exporting $PARENT into $DIR/parent" >&2
rm -rf "$DIR/parent" "$DIR/parent-target" "$DIR/runs"
mkdir -p "$DIR/parent" "$DIR/runs/parent" "$DIR/runs/change"
git -C "$ROOT" archive "$(git -C "$ROOT" rev-parse --verify "$PARENT^{commit}")" | tar -x -C "$DIR/parent"

# The BENCHMARK.json command, with its manifest path anchored at each side's
# root.
mapfile -t CMD < <(python3 -c \
  'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$ROOT/BENCHMARK.json")
PARENT_CMD=() CHANGE_CMD=() MANIFEST="" prev=""
for arg in "${CMD[@]}"; do
  if [[ "$prev" == --manifest-path ]]; then
    MANIFEST="$arg"
    PARENT_CMD+=("$DIR/parent/$arg")
    CHANGE_CMD+=("$ROOT/$arg")
  else
    PARENT_CMD+=("$arg")
    CHANGE_CMD+=("$arg")
  fi
  prev="$arg"
done

echo "==> building both sides" >&2
CARGO_TARGET_DIR="$DIR/parent-target" \
  cargo build --release --offline --quiet --manifest-path "$DIR/parent/$MANIFEST"
cargo build --release --offline --quiet --manifest-path "$ROOT/$MANIFEST"

run_side() {
  local side="$1" seed="$2" status=0
  local args=(--workload "$WORKLOAD" --seed "$seed" --seconds "$SECS" --trace "$TRACE")
  if [[ "$side" == parent ]]; then
    (cd "$DIR/runs/parent" && CARGO_TARGET_DIR="$DIR/parent-target" "${PARENT_CMD[@]}" "${args[@]}") \
      >"$DIR/runs/parent/$seed.out" 2>"$DIR/runs/parent/$seed.err" || status=$?
  else
    (cd "$DIR/runs/change" && "${CHANGE_CMD[@]}" "${args[@]}") \
      >"$DIR/runs/change/$seed.out" 2>"$DIR/runs/change/$seed.err" || status=$?
  fi
  echo "$WORKLOAD seed $seed $side: exit $status" >&2
}

for i in "${!SEEDS[@]}"; do
  seed="${SEEDS[$i]}"
  if (( i % 2 == 0 )); then
    run_side parent "$seed"
    run_side change "$seed"
  else
    run_side change "$seed"
    run_side parent "$seed"
  fi
done

python3 - "$ROOT/BENCHMARK.json" "$DIR/runs" "$WORKLOAD" "${SEEDS[@]}" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
runs, workload, seeds = sys.argv[2], sys.argv[3], sys.argv[4:]
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}

def result(side, seed):
    try:
        lines = open(f"{runs}/{side}/{seed}.out").read().strip().splitlines()
        r = json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None
    if not r.get("correct") or r.get("failed"):
        return None
    return {name: m["value"] for name, m in r["metrics"].items()}

pairs, bad = [], []
for seed in seeds:
    p, c = result("parent", seed), result("change", seed)
    if p is None or c is None:
        bad.append(seed)
    else:
        pairs.append((p, c))

def quartiles(vs):
    if len(vs) == 1:
        return vs[0], vs[0], vs[0]
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return q1, med, q3

print(f"{workload}: {len(pairs)} pairs, parent -> working tree")
print(f"{'metric':<34} {'parent median [Q1, Q3]':>36} {'change median [Q1, Q3]':>36} {'wins':>6}")
names = sorted({n for p, c in pairs for n in p if n in c})
for name in names:
    ps = [p[name] for p, c in pairs if name in p and name in c]
    cs = [c[name] for p, c in pairs if name in p and name in c]
    lower = better.get(name, "lower") == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(ps, cs))
    ties = sum(c == p for p, c in zip(ps, cs))
    pq, cq = quartiles(ps), quartiles(cs)
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    tie = f" ({ties} tied)" if ties else ""
    print(f"{name:<34} {fmt(pq):>36} {fmt(cq):>36} {wins:>3}/{len(ps)}{tie}")
if bad:
    print(f"failed or incorrect runs at seeds: {', '.join(bad)}", file=sys.stderr)
    sys.exit(1)
EOF
