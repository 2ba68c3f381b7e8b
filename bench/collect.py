"""Run every workload over several seeds and record the results as JSON.

Run from the repository root, for example:

    python3 bench/collect.py --seeds 1-10 --out bench/baseline/BENCH_seed.json

Each workload runs once per seed with tracing off, then once with tracing on
(first seed).  The output holds every run's metrics and output digest, the
median and quartiles of each end-to-end metric, their spread (quartile
distance over median), and the traced per-layer breakdown.  Comparing two
such files from the same benchmark code gives before-and-after numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=REPO, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    record["seed"] = seed
    record["digest"] = next(ln.split(":", 1)[1] for ln in lines
                            if ln.startswith("digest sha256:"))
    record["log"] = lines[:-1]
    return record


def machine() -> dict:
    """Where the numbers were taken: CPU model and count, OS, Python."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "cpus": os.cpu_count(),
            "system": platform.platform(), "python": platform.python_version()}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "n": len(values)}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,9'")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    seeds = parse_seeds(args.seeds)
    report = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, s in metrics.items():
            print(f"  {workload} {name}: median {s['median']:.4f} "
                  f"spread {s['spread']:.4f}", flush=True)
        report["workloads"][workload] = {
            "end_to_end": metrics,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed",
                                        "metrics", "digest")} for r in runs],
            "traced": {"seed": traced["seed"], "metrics": traced["metrics"],
                       "breakdown": [ln for ln in traced["log"] if ln.startswith("  ")]},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
