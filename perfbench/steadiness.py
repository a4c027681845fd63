#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report the spread.

For every workload and end-to-end metric this prints the median of the
runs, the first and third quartiles (Python's statistics.quantiles with
n=4), and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads durable --bin .bench_build/release/perfbench

--bin runs an already built benchmark binary instead of the command in
BENCHMARK.json. --out writes the table as markdown as well.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    """The run's end-to-end metrics, or None when it failed or was incorrect."""
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr + f"{workload} seed {seed}: exit {proc.returncode}\n")
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(f"{workload} seed {seed}: incorrect run {result}\n")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--bin", help="benchmark binary to run instead of the BENCHMARK.json command")
    ap.add_argument("--out", help="also write the table, as markdown, to this file")
    args = ap.parse_args()

    cmd = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rows = []
    failed = []
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics = run_once(cmd, workload, seed, args.seconds)
            if metrics is None:
                failed.append(f"{workload} seed {seed}")
                continue
            for name, v in metrics.items():
                values.setdefault(name, []).append(v)
            print(f"{workload} seed {seed} done", file=sys.stderr)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            rows.append((workload, name, med, q1, q3, spread, bound, min(vs), max(vs)))

    head = "| workload | metric | median | Q1 | Q3 | spread | bound | spread/bound | min | max |"
    table = [head, "|" + "---|" * 10]
    for w, n, med, q1, q3, spread, bound, lo, hi in rows:
        table.append(
            f"| {w} | {n} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bound} | "
            f"{spread / bound:.2f} | {lo:.6g} | {hi:.6g} |"
        )
    if failed:
        table.append(f"\nFailed runs: {', '.join(failed)}")
    print("\n".join(table))
    if args.out:
        with open(args.out, "w") as f:
            f.write(f"{args.runs} runs per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
                    f"{args.seconds} s each.\n\n" + "\n".join(table) + "\n")
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
