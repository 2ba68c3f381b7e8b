"""Benchmark of the tricliq command line, one workload per process.

Run from the repository root:

    python3 bench/run.py --workload dense-trace --seed 1 --seconds 45 --trace 0

The run generates the workload's graph files from ``--seed``, imports
``tricliq`` from ``src/``, and calls ``tricliq.cli.main(argv)`` in-process
for each file of the batch, capturing stdout and stderr.  It is a closed
loop with a single caller: the next call starts when the previous one
returns, and the batch is repeated for about ``--seconds`` seconds (at least
once).  Outputs are checked against the benchmark's own copy of each graph.

``--trace 0`` reports the end-to-end metrics: the batch time, peak RSS of a
separate child process that runs the batch once, and the median set-up time.
Both times are in seconds at reference speed: a fixed kernel is timed between
every two calls and around every set-up, and each call's wall time is scaled
by how fast the kernel ran next to it (see ``reference.py``).  The batch time
is the sum over the batch's calls of each call's median scaled time; the
median raw wall time of a batch is printed beside it.

``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics (see ``tracing.py``), also at reference speed; its spans
and layer breakdown are written to ``bench/out/``.  The last line of stdout
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
CHILD_TIMEOUT_S = 150
END_TO_END = [
    ("batch_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]


def import_cli():
    """Import ``tricliq.cli`` from ``src/`` afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "tricliq" or m.startswith("tricliq.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("tricliq.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"tricliq was imported from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv):
    """One CLI call: (exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a bench error
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def run_batch(cli, ops, before, tracer=None):
    """One pass over ``ops`` with the reference kernel timed between calls.

    Returns the batch's wall time, each call's time at reference speed, the
    calls' results and the last kernel time (the next batch's ``before``).
    With a ``tracer``, each call runs in a root span, and the spans it
    records are scaled to reference speed by the call's own factor.
    """
    results, scaled = [], []
    t0 = time.perf_counter()
    for op in ops:
        first = len(tracer.spans) if tracer else 0
        t = time.perf_counter()
        if tracer is None:
            results.append(call(cli, op.argv))
        else:
            tracer.graph = op.graph.name
            with tracer.span(tracing.ROOT):
                results.append(call(cli, op.argv))
        dt = time.perf_counter() - t
        after = reference.measure()
        factor = reference.scale(1.0, before, after)
        scaled.append(dt * factor)
        if tracer is not None:
            for span in tracer.spans[first:]:
                span.scale = factor
        before = after
    return time.perf_counter() - t0, scaled, results, before


class Outcome:
    """Checks every call of every batch; holds the first batch's outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.refs = {}
        self.first = None
        self.texts = None
        self.bad = set()  # indices of ops whose first-batch output failed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, i, problems):
        self.failed += 1
        self.bad.add(i)
        op = self.ops[i]
        self.problems += [f"{op.graph.name} {op.argv[0]}: {p}" for p in problems]

    def ref(self, op) -> checks.Reference:
        return self.refs.setdefault(op.graph.name, checks.Reference(op.graph))

    def add(self, results):
        texts = []
        for i, (rc, stdout, err) in enumerate(results):
            self.attempted += 1
            text = problem = None
            if rc != 0:
                problem = f"exit code {rc}: {err.strip()[-200:]}"
            else:
                try:
                    text = checks.canonical(stdout)
                except ValueError as exc:
                    problem = f"output is not JSON: {exc}"
            if problem is None and self.texts is not None and text != self.texts[i]:
                problem = "output differs from the first batch"
            if problem is not None:
                self._fail(i, [problem])
            texts.append(text)
        if self.first is None:
            self.first, self.texts = results, texts

    def check_first(self):
        """Full output checks on the first batch (outside any timed region)."""
        for i, (op, (rc, stdout, _)) in enumerate(zip(self.ops, self.first)):
            if self.texts[i] is not None:
                found = checks.check_op(op, self.ref(op), rc, stdout)
                if found:
                    self._fail(i, found)

    def omega_gaps(self) -> list[int]:
        """omega minus size for every clique the batch returned."""
        gaps = []
        for i, (op, (_, stdout, _)) in enumerate(zip(self.ops, self.first)):
            if i in self.bad or op.kind == "trace":
                continue
            obj = json.loads(stdout)
            if op.kind == "clique":
                sizes = [obj["size"]]
            elif op.kind == "per-edge":
                sizes = [r["size"] for r in obj["by_edge"].values()]
            else:
                sizes = [obj["heuristic_size"]]
            gaps += [self.ref(op).omega() - s for s in sizes]
        return gaps

    def digest(self) -> str:
        return checks.digest((op, t or "") for op, t in zip(self.ops, self.texts))


def child_rss(argvs, ops_file: str):
    """Run a child that makes the CLI calls once; (peak RSS in MiB, exit codes)."""
    with open(ops_file, "w", encoding="utf-8") as fh:
        json.dump(argvs, fh)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--rss-child", ops_file],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=REPO)
    if proc.returncode != 0:
        raise RuntimeError(f"RSS child failed: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["maxrss_kib"] / 1024, report["rcs"]


def peak_rss_kib() -> int:
    """This process's peak resident set size in KiB (Linux ``VmHWM``).

    ``resource.getrusage().ru_maxrss`` is not used: it keeps the high-water
    mark of the parent's memory image that ``fork`` copied before ``exec``,
    so a child of a large parent would report the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def rss_child_main(ops_file: str) -> int:
    cli = import_cli()
    with open(ops_file, encoding="utf-8") as fh:
        argvs = json.load(fh)
    rcs = [call(cli, argv)[0] for argv in argvs]
    print(json.dumps({"maxrss_kib": peak_rss_kib(), "rcs": rcs}))
    return 0


def setup(args, run_dir, reps):
    """Generate the files and import tricliq ``reps`` times; the last one is kept.

    Each set-up's time is at reference speed, as the calls' are.
    """
    times = []
    before = reference.measure()
    for _ in range(reps):
        t0 = time.perf_counter()
        cli = import_cli()
        batch = workloads.build(args.workload, args.seed, run_dir, REPO, args.size)
        dt = time.perf_counter() - t0
        after = reference.measure()
        times.append(reference.scale(dt, before, after))
        before = after
    return cli, batch, times


def keep_running(start, times, seconds):
    """Closed-loop budget: another batch only if it should end in time."""
    return not times or (time.perf_counter() - start) + statistics.median(times) <= seconds


def measure(args, cli, batch, run_dir):
    outcome = Outcome(batch.ops)
    times, scaled = [], []
    start = time.perf_counter()
    before = reference.measure()
    while keep_running(start, times, args.seconds):
        dt, per_call, results, before = run_batch(cli, batch.ops, before)
        times.append(dt)
        scaled.append(per_call)
        outcome.add(results)

    ops_file = os.path.join(run_dir, "ops.json")
    rss = {"import": child_rss([], ops_file)[0]}
    rss["batch"], rcs = child_rss([op.argv for op in batch.ops], ops_file)
    outcome.attempted += len(rcs)
    bad = [op.graph.name for op, rc in zip(batch.ops, rcs) if rc != 0]
    outcome.failed += len(bad)
    outcome.problems += [f"{name}: nonzero exit in the RSS child" for name in bad]
    return outcome, times, scaled, rss


def measure_traced(args, cli, batch):
    """Alternate untraced and traced batches; medians of the layer metrics.

    Times are at reference speed, as in the untraced run.
    """
    outcome = Outcome(batch.ops)
    pairs_by_path = {g.path: (g.n, g.edges) for g in batch.graphs}
    pairs, untraced, traced, layers, selfs, spans = [], [], [], [], [], None
    start = time.perf_counter()
    before = reference.measure()
    while keep_running(start, pairs, args.seconds):
        pair_start = time.perf_counter()
        _, per_call, results, before = run_batch(cli, batch.ops, before)
        untraced.append(sum(per_call))
        outcome.add(results)
        tracer = tracing.Tracer()
        with tracing.instrumented(cli, tracer, pairs_by_path):
            _, _, results, before = run_batch(cli, batch.ops, before, tracer)
        outcome.add(results)
        traced.append(sum(s.duration for s in tracer.spans if s.name == tracing.ROOT))
        layers.append(tracing.layer_metrics(tracer.spans))
        selfs.append(tracing.self_by_span(tracer.spans))
        spans = spans or tracer.spans
        pairs.append(time.perf_counter() - pair_start)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["batch.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - metrics["batch.untraced_s"]
    rows = tracing.breakdown(selfs, metrics["batch.untraced_s"])
    return outcome, metrics, rows, spans, len(untraced)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="graph sizes; 'tiny' is for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--rss-child"]:
        return rss_child_main(argv[1])
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tricliq", "cli.py")):
        print(f"error: no tricliq sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        cli, batch, setup_times = setup(args, run_dir, 1 if args.trace else SETUP_REPS)
        gc.collect()
        gc.freeze()
        if args.trace:
            outcome, metrics, rows, spans, reps = measure_traced(args, cli, batch)
        else:
            outcome, times, scaled, rss = measure(args, cli, batch, run_dir)
        outcome.check_first()
        gaps = outcome.omega_gaps()
    finally:
        gc.unfreeze()
        shutil.rmtree(run_dir, ignore_errors=True)

    digest = outcome.digest()
    print(f"workload {args.workload} seed {args.seed}: {len(batch.graphs)} graphs, "
          f"{len(batch.ops)} CLI calls per batch")
    print(f"digest sha256:{digest}")
    for problem in outcome.problems[:20]:
        print(f"FAIL {problem}")
    print(f"attempted {outcome.attempted} failed {outcome.failed} "
          f"fail_ratio {outcome.failed / outcome.attempted:.4f}")
    omega_gap = sum(gaps) / len(gaps) if gaps else 0.0
    print(f"omega_gap {omega_gap:.4f} over {len(gaps)} cliques")

    if args.trace:
        metrics["extraction.omega_gap"] = omega_gap
        e2e = metrics["batch.untraced_s"]
        print(f"traced run: {reps} untraced + {reps} traced batches, "
              f"untraced median {e2e:.4f} s, overhead {metrics['trace.overhead_s']:.4f} s")
        for name, self_s, share in rows:
            print(f"  {name:26s} self {self_s:10.4f} s  {100 * share:6.2f}% of batch")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "digest": digest,
                       "metrics": metrics,
                       "breakdown": [{"span": n, "self_s": x, "share": s}
                                     for n, x, s in rows],
                       "spans": [s.to_json_obj() for s in spans]}, fh)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        batch_s = sum(statistics.median(call_times) for call_times in zip(*scaled))
        print(f"batch_s {batch_s:.4f} s at reference speed over {len(times)} batches; "
              f"wall time median {statistics.median(times):.4f} s: "
              f"{[round(t, 4) for t in times]}")
        print(f"setup_s median {statistics.median(setup_times):.4f} s at reference "
              f"speed over {len(setup_times)}: {[round(t, 4) for t in setup_times]}")
        print(f"peak_rss_mib {rss['batch']:.1f} MiB, import-only baseline "
              f"{rss['import']:.1f} MiB")
        values = {"batch_s": batch_s, "peak_rss_mib": rss["batch"],
                  "setup_s": statistics.median(setup_times)}
        result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
