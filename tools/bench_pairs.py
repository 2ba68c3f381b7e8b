"""Alternating parent/change pairs of the benchmark, with the standard library
alone.

Run it from anywhere, with two checkouts of the repository:

    python tools/bench_pairs.py --parent DIR --change DIR \\
        --workload sparse-oracle --seed 1 --pairs 10 --seconds 10

Each pair runs ``bench/run.py --workload W --seed S --seconds T`` once in
each checkout, with the interpreter that runs this script; the side that
runs first alternates from pair to pair, the parent first in pair 1.  Of a
run's output it reads only the ``digest`` line and the last line, the
result as one JSON object; it changes nothing in either checkout.

It prints each run's metrics and digest, then for each end-to-end metric
of ``BENCHMARK.json`` in the change's checkout: per side the median,
quartiles and interquartile range, the pairs in which the change reads
better (in the direction that file declares), and the difference of the
medians beside the parent's interquartile range.  It exits 1 if any run
fails, reports ``"correct": false``, or prints a digest other than the
first run's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout: str, args) -> dict:
    """One benchmark run in ``checkout``: its digest, verdict and metrics."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: bench/run.py exited {done.returncode}\n"
                         f"{done.stderr}")
    digests = [line.split()[1] for line in lines if line.startswith("digest ")]
    result = json.loads(lines[-1])
    return {"digest": digests[-1] if digests else None,
            "correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def lower_is_better(checkout: str) -> dict[str, bool]:
    """Each end-to-end metric of the checkout's ``BENCHMARK.json``: whether
    lower reads better."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    return {entry["name"]: entry["better"] == "lower"
            for entry in declared["end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    checkouts = {"parent": args.parent, "change": args.change}
    lower = lower_is_better(args.change)
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = run_once(checkouts[side], args)
            runs[side].append(run)
            shown = " ".join(f"{k} {v:.4f}" for k, v in run["metrics"].items())
            print(f"pair {i + 1} {side}: {shown} correct {run['correct']} "
                  f"digest {run['digest']}", flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds}: median (quartiles) IQR")
    for metric, lower_better in lower.items():
        values = [[r["metrics"][metric] for r in runs[side]] for side in SIDES]
        cells = []
        for side, side_values in zip(SIDES, values):
            q1, median, q3 = quartiles(side_values)
            cells.append(f"{side} {median:.4f} ({q1:.4f}-{q3:.4f}) {q3 - q1:.4f}")
        wins = sum((c < p) if lower_better else (c > p) for p, c in zip(*values))
        q1, parent_median, q3 = quartiles(values[0])
        change_median = statistics.median(values[1])
        print(f"  {metric}: " + "; ".join(cells))
        print(f"    change better in {wins}/{args.pairs} pairs; medians "
              f"{parent_median:.4f} -> {change_median:.4f} "
              f"({100 * (change_median / parent_median - 1):+.1f}%), "
              f"difference {abs(change_median - parent_median):.4f} against "
              f"the parent's IQR {q3 - q1:.4f}")

    every = runs["parent"] + runs["change"]
    status = 0
    if len({r["digest"] for r in every}) != 1:
        print("error: the runs' digests differ", file=sys.stderr)
        status = 1
    if not all(r["correct"] for r in every):
        print("error: a run reported \"correct\": false", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
