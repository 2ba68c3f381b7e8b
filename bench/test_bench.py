"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import reference
import run
import tracing
import workloads

BENCHMARK_JSON = os.path.join(run.REPO, "BENCHMARK.json")


def tiny_batch(workload, seed=3, tag="t"):
    out = os.path.join(run.OUT, f"test-{tag}-{workload}-{seed}-{os.getpid()}")
    return workloads.build(workload, seed, out, run.REPO, "tiny"), out


@pytest.fixture
def cli():
    return run.import_cli()


@pytest.fixture
def dense(cli):
    batch, out = tiny_batch("dense-trace")
    yield batch
    shutil.rmtree(out, ignore_errors=True)


def clique_ops(batch):
    return [op for op in batch.ops if op.kind == "clique"]


def output(cli, op):
    rc, stdout, _ = run.call(cli, op.argv)
    assert rc == 0
    return json.loads(stdout)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_the_declared_metrics(workload, trace):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.2",
                       "--trace", str(trace), "--size", "tiny"])
    assert rc == 0
    assert time.perf_counter() - t0 < 30
    result = last_json(buf.getvalue())
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared[key]} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] \
        == tracing.PER_LAYER


def test_same_seed_same_inputs_other_seed_other_inputs():
    def contents(seed, tag):
        batch, out = tiny_batch("sparse-oracle", seed, tag)
        try:
            return [open(g.path, encoding="utf-8").read() for g in batch.graphs]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    assert contents(7, "a") == contents(7, "b")
    assert contents(7, "a") != contents(8, "a")


def test_clique_check_flags_a_corrupted_clique(cli, dense):
    op = clique_ops(dense)[-1]
    ref = checks.Reference(op.graph)
    good = output(cli, op)
    assert checks.check_clique(ref, good) == []

    outsider = next(v for v in range(1, op.graph.n + 1)
                    if v not in good["vertices"]
                    and any(v not in ref.adj[u] for u in good["vertices"]))
    bad = dict(good, vertices=good["vertices"][1:] + [outsider])
    assert any("not a clique" in p for p in checks.check_clique(ref, bad))
    assert checks.check_clique(ref, dict(good, verified=False))
    assert checks.check_clique(ref, dict(good, size=good["size"] + 1))


def test_clique_check_flags_a_size_above_omega(cli, dense):
    op = clique_ops(dense)[0]
    ref = checks.Reference(op.graph)
    good = output(cli, op)
    ref._omega = good["size"] - 1
    assert any("exceeds omega" in p for p in checks.check_clique(ref, good))


def test_trace_check_flags_a_dropped_triangle(cli, dense):
    op = next(o for o in dense.ops if o.kind == "trace" and o.graph.family == "gnm")
    ref = checks.Reference(op.graph)
    records = output(cli, op)
    assert checks.check_trace(ref, records) == []

    dropped = copy.deepcopy(records)
    dropped[-1]["removed_ids"].pop()
    assert any("partition" in p for p in checks.check_trace(ref, dropped))

    stalled = copy.deepcopy(records)
    stalled.insert(1, dict(stalled[1], removed_ids=[]))
    assert any("removed nothing" in p for p in checks.check_trace(ref, stalled))

    reweighted = copy.deepcopy(records)
    reweighted[0]["weights"][0] += 1
    assert any("independent count" in p for p in checks.check_trace(ref, reweighted))


def test_trace_check_compares_fixture_sequences(cli, dense):
    op = next(o for o in dense.ops if o.kind == "trace" and o.graph.name == "fixture_g1")
    ref = checks.Reference(op.graph)
    records = output(cli, op)
    assert checks.check_trace(ref, records) == []
    records[0]["min_edges"] = records[0]["min_edges"][1:]
    assert any("min_edges_by_iteration" in p for p in checks.check_trace(ref, records))


def test_validate_check_flags_disagreeing_counts(cli):
    batch, out = tiny_batch("sparse-oracle")
    try:
        for op in (op for op in batch.ops if op.kind == "validate"):
            ref = checks.Reference(op.graph)
            good = output(cli, op)
            assert checks.check_validate(ref, good) == []
            if op.graph.family in ("moon-moser", "multipartite"):
                bad = dict(good, count_maghout=good["count_maghout"] + 1)
                assert any("disagree" in p for p in checks.check_validate(ref, bad))
            assert checks.check_validate(ref, dict(good, omega=good["omega"] + 1))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_nonzero_exit_counts_as_failed(cli, dense):
    ops = clique_ops(dense)[:2]
    outcome = run.Outcome(ops)
    missing = os.path.join(run.OUT, "no-such-graph.txt")
    results = [run.call(cli, ["clique", missing, "--json"]), run.call(cli, ops[1].argv)]
    assert results[0][0] == 1
    outcome.add(results)
    outcome.check_first()
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert checks.check_op(ops[1], checks.Reference(ops[1].graph), 2, "") == ["exit code 2"]


def test_changed_output_in_a_later_batch_counts_as_failed(cli, dense):
    op = clique_ops(dense)[0]
    outcome = run.Outcome([op])
    rc, stdout, err = run.call(cli, op.argv)
    outcome.add([(rc, stdout, err)])
    changed = json.loads(stdout)
    changed["seed_edges"] = changed["seed_edges"] + [1]
    outcome.add([(rc, json.dumps(changed), err)])
    assert outcome.failed == 1


def test_omega_search_matches_the_whole_graph_oracle(cli):
    from tricliq import Graph, max_clique_exact

    batch, out = tiny_batch("sparse-oracle")
    try:
        for g in batch.graphs:
            whole = max_clique_exact(Graph(g.n, g.edges)).omega
            assert checks.Reference(g).omega() == whole
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_probe_time_is_excluded_from_enclosing_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("probe", probe=True):
                time.sleep(0.05)
    outer, inner, probe = tracer.spans
    assert probe.duration >= 0.05
    assert outer.duration < 0.04 and inner.duration < 0.04
    assert (inner.parent, probe.parent) == (0, 1)
    selfs = tracing.self_times(tracer.spans)
    assert selfs[1] == pytest.approx(inner.duration - probe.duration)


def test_call_time_is_scaled_by_the_kernel_times_around_it():
    ref = reference.REF_S
    assert reference.scale(1.0, ref, ref) == pytest.approx(1.0)
    # The kernel ran at half speed next to the call: half the wall time counts.
    assert reference.scale(1.0, 1.5 * ref, 2.5 * ref) == pytest.approx(0.5)
    assert reference.measure() > 0


def test_exits_nonzero_without_the_library():
    bare = os.path.join(run.OUT, f"test-bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCHMARK_JSON, bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "dense-trace", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
