"""``tools/bench_pairs.py`` on two stand-in checkouts, each with a
``bench/run.py`` that prints a fixed result, so no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def checkout(root: Path, name: str, batch_s: float, digest: str = "ab12",
             correct: bool = True) -> str:
    """A directory whose ``bench/run.py`` prints a digest line, some other
    output, and a result line."""
    (root / name / "bench").mkdir(parents=True)
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
              "metrics": {"batch_s": {"value": batch_s, "unit": "s"},
                          "peak_rss_mib": {"value": 37.5, "unit": "MiB"}}}
    (root / name / "bench" / "run.py").write_text(
        f"print('workload w seed 1: 2 graphs')\n"
        f"print('digest sha256:{digest}')\n"
        f"print('batch_s 9.9 s')\n"
        f"print({json.dumps(json.dumps(result))})\n", encoding="utf-8")
    (root / name / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "batch_s", "better": "lower"},
                       {"name": "peak_rss_mib", "better": "lower"}]}),
        encoding="utf-8")
    return str(root / name)


def run(parent: str, change: str, pairs: int = 2) -> int:
    return bench_pairs.main(["--parent", parent, "--change", change,
                             "--workload", "w", "--seed", "1",
                             "--pairs", str(pairs), "--seconds", "1"])


def test_pairs_alternate_and_every_metric_is_counted(tmp_path, capsys):
    status = run(checkout(tmp_path, "p", 0.34), checkout(tmp_path, "c", 0.32), pairs=3)
    out = capsys.readouterr().out
    assert status == 0
    sides = [line.split(":")[0] for line in out.splitlines() if line.startswith("pair ")]
    assert sides == ["pair 1 parent", "pair 1 change", "pair 2 change",
                     "pair 2 parent", "pair 3 parent", "pair 3 change"]
    assert "pair 1 parent: batch_s 0.3400 peak_rss_mib 37.5000 correct True " \
           "digest sha256:ab12" in out
    assert "batch_s: parent 0.3400 (0.3400-0.3400) 0.0000; " \
           "change 0.3200 (0.3200-0.3200) 0.0000" in out
    assert "change better in 3/3 pairs; medians 0.3400 -> 0.3200 (-5.9%), " \
           "difference 0.0200 against the parent's IQR 0.0000" in out
    # both sides read 37.5 MiB: the change is better in no pair
    assert "change better in 0/3 pairs; medians 37.5000 -> 37.5000 (+0.0%)" in out


@pytest.mark.parametrize("change", [
    {"batch_s": 0.32, "digest": "cd34"},
    {"batch_s": 0.32, "correct": False},
], ids=["digests-differ", "incorrect"])
def test_a_wrong_run_exits_1(tmp_path, capsys, change):
    assert run(checkout(tmp_path, "p", 0.34), checkout(tmp_path, "c", **change)) == 1
    assert "error:" in capsys.readouterr().err


def test_a_failed_run_exits_1(tmp_path):
    parent = checkout(tmp_path, "p", 0.34)
    (tmp_path / "p" / "bench" / "run.py").write_text("raise SystemExit(2)\n")
    with pytest.raises(SystemExit) as err:
        run(parent, checkout(tmp_path, "c", 0.32))
    assert "exited 2" in str(err.value.code)
