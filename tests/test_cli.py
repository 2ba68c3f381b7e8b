import gc
import inspect
import json
import runpy
import shlex
import sys
import tracemalloc
from pathlib import Path

import pytest

from tricliq import (
    complete,
    complete_multipartite,
    enumerate_triangles,
    format_edge_list,
    load_graph,
    moon_moser,
)
from tricliq.cli import build_parser, main
from tricliq.triangles import TriangleStore

from conftest import cyclic_garbage, gnp


@pytest.fixture()
def g3_path(tmp_path, g3):
    p = tmp_path / "g3.edges"
    p.write_text(format_edge_list(g3.graph))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_moon_moser(capsys, tmp_path):
    out_path = tmp_path / "mm4.edges"
    code, _, _ = run(capsys, "generate", "moon-moser", "4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "12 54"
    assert len(lines) == 55


def test_generate_complete_to_stdout(capsys):
    code, out, _ = run(capsys, "generate", "complete", "4")
    assert code == 0
    assert out.splitlines()[0] == "4 6"


def test_generate_multipartite(capsys, tmp_path):
    out_path = tmp_path / "t13.edges"
    code, _, _ = run(capsys, "generate", "multipartite", "3,3,3,4",
                     "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "13 63"


def test_generate_dimacs(capsys):
    code, out, _ = run(capsys, "generate", "complete", "3", "--format", "dimacs")
    assert code == 0
    assert out.startswith("p edge 3 3\n")


def test_generate_bad_params(capsys):
    code, _, err = run(capsys, "generate", "moon-moser", "0")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("family, params", [
    ("complete", "abc"), ("moon-moser", "4.5"), ("multipartite", "3,x")])
def test_generate_non_integer_params(capsys, family, params):
    code, out, err = run(capsys, "generate", family, params)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and repr(params.split(",")[-1]) in err


@pytest.mark.parametrize("command", ["clique", "oracle", "triangles"])
def test_undecodable_input_names_its_line(capsys, tmp_path, command):
    p = tmp_path / "latin1.edges"
    p.write_bytes(b"3 3\n1 2\n# caf\xe9\n1 3\n2 3\n")
    code, out, err = run(capsys, command, str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 3: ") and "0xe9" in err


def test_triangles_json(capsys, g3_path, g3):
    code, out, _ = run(capsys, "triangles", g3_path, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 39
    assert obj["triangles"][0] == {"id": 1, "vertices": [1, 2, 3],
                                   "edges": [1, 2, 8]}
    assert obj["edge_weights"] == g3.expected["p_by_iteration"]["0"]


def test_triangles_json_checks_its_listing_once(capsys, monkeypatch, g3_path):
    checked = []
    of = TriangleStore.of

    def counted(cls, g, store):
        checked.append(store)
        return of(g, store)

    monkeypatch.setattr(TriangleStore, "of", classmethod(counted))
    code, out, _ = run(capsys, "triangles", g3_path, "--json")
    assert code == 0 and json.loads(out)["count"] == 39
    assert len(checked) == 1


def test_trace_table_has_one_row_per_logged_record(capsys, tmp_path):
    # the table's surviving column counts down by each record's removals,
    # and the log's removed_ids partition the ids 1..T, none empty
    p = tmp_path / "g30.edges"
    p.write_text(format_edge_list(gnp(30, 0.5, seed=1)))
    code, table, _ = run(capsys, "trace", str(p))
    assert code == 0
    code, out, _ = run(capsys, "trace", str(p), "--json")
    assert code == 0
    log = json.loads(out)
    header, *rows, footer = table.splitlines()
    assert header.startswith("i  MIN") and footer.startswith("main iteration: ")
    assert len(rows) == len(log) > 1
    alive = sum(len(r["removed_ids"]) for r in log)
    for row, r in zip(rows, log):
        assert row.split()[:4] == [str(r["i"]), str(r["min"]), str(r["max"]),
                                   str(alive)]
        alive -= len(r["removed_ids"])
    ids = sorted(c for r in log for c in r["removed_ids"])
    assert ids == list(range(1, len(ids) + 1))
    assert all(r["removed_ids"] for r in log)


def test_trace_g3_table(capsys, g3_path):
    code, out, _ = run(capsys, "trace", g3_path, "--mode", "early-stop")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(rows) == 8
    assert rows[-1].startswith("7  3  3  10")


def test_trace_json(capsys, g3_path):
    code, out, _ = run(capsys, "trace", g3_path, "--json")
    assert code == 0
    objs = json.loads(out)
    assert [(o["min"], o["max"]) for o in objs] == [
        (1, 6), (1, 6), (2, 6), (1, 5), (2, 5), (1, 4), (2, 4), (3, 3)]


def test_trace_g1_summary(capsys, tmp_path, g1):
    p = tmp_path / "g1.edges"
    p.write_text(format_edge_list(g1.graph))
    code, out, _ = run(capsys, "trace", str(p), "--json")
    assert code == 0
    objs = json.loads(out)
    assert [(o["min"], o["max"]) for o in objs] == [(2, 5), (2, 4), (3, 3)]
    assert objs[0]["weights"] == g1.expected["p0"]


def test_trace_triangle_free_warns(capsys, tmp_path):
    p = tmp_path / "mm2.edges"
    p.write_text(format_edge_list(moon_moser(2)))
    code, out, err = run(capsys, "trace", str(p))
    assert code == 0
    assert "no triangles" in err


def test_trace_json_of_a_triangle_free_graph_is_an_empty_list(capsys, tmp_path):
    p = tmp_path / "mm2.edges"
    p.write_text(format_edge_list(moon_moser(2)))
    code, out, _ = run(capsys, "trace", str(p), "--json")
    assert code == 0
    assert out == "[]\n"


@pytest.mark.parametrize("content", [
    None,                                # no such file
    b"3 3\n1 2\n# caf\xe9\n1 3\n2 3\n",  # not UTF-8
    b"3 3\n1 2\nx y\n2 3\n",            # malformed record
    b"3 3\n1 2\n1 3\n",                 # fewer edges than declared
])
def test_trace_json_on_a_bad_file_writes_nothing(capsys, tmp_path, content):
    p = tmp_path / "bad.edges"
    if content is not None:
        p.write_bytes(content)
    code, out, err = run(capsys, "trace", str(p), "--json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_trace_json_failing_trace_writes_nothing(capsys, monkeypatch, g3_path):
    import tricliq.cli as cli

    def stuck(*args, **kwargs):
        raise RuntimeError("pruning removed nothing; invariant violated")

    monkeypatch.setattr(cli, "full_trace", stuck)
    code, out, err = run(capsys, "trace", g3_path, "--json")
    assert code == 3
    assert out == ""
    assert "invariant" in err


def test_clique_g3(capsys, g3_path):
    code, out, _ = run(capsys, "clique", g3_path, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vertices"] == [1, 2, 3, 8, 11]
    assert obj["size"] == 5 and obj["verified"]


@pytest.mark.parametrize("options", [[], ["--all-min-edges"]],
                         ids=["clique", "all-min-edges"])
def test_clique_json_schema(capsys, g3_path, options):
    # the CLI builds these objects; tests/test_cli_outputs.py pins their bytes
    code, out, _ = run(capsys, "clique", g3_path, *options, "--json")
    assert code == 0
    obj = json.loads(out)
    results = list(obj["by_edge"].values()) if options else [obj]
    assert results
    for r in results:
        assert list(r) == ["vertices", "size", "seed_edges", "depth",
                           "verified", "degenerate", "fallback_used"]
        assert r["fallback_used"] is False


def test_clique_all_min_edges_g2(capsys, tmp_path, g2):
    p = tmp_path / "g2.edges"
    p.write_text(format_edge_list(g2.graph))
    code, out, _ = run(capsys, "clique", str(p), "--all-min-edges", "--json")
    assert code == 0
    obj = json.loads(out)
    assert sorted(map(int, obj["by_edge"])) == g2.expected["min_edges"]
    assert obj["distinct"] == g2.expected["distinct_cliques"]


def test_clique_all_min_edges_moon_moser_4(capsys, tmp_path):
    # all 54 edges of MM(4) tie at weight 6, so each seeds an extraction
    # whose candidate subgraph is traced once more to give a 4-clique
    p = tmp_path / "mm4.edges"
    p.write_text(format_edge_list(moon_moser(4)))
    code, out, _ = run(capsys, "clique", str(p), "--all-min-edges", "--json")
    assert code == 0
    by_edge = json.loads(out)["by_edge"]
    assert sorted(map(int, by_edge)) == list(range(1, 55))
    assert all((r["verified"], r["size"], r["depth"]) == (True, 4, 1)
               for r in by_edge.values())


def test_oracle(capsys, g3_path):
    code, out, _ = run(capsys, "oracle", g3_path, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["omega"] == 5
    assert obj["count_maximal"] == 16
    assert obj["nodes_visited"] > 0


def test_oracle_cycle_2000(capsys, tmp_path):
    # every maximal clique of C_2000 is an edge; branch-and-bound visits
    # the root, the branch on 1 and its edge, then 1997 branches cut at
    # their first bound
    p = tmp_path / "c2000.edges"
    p.write_text("2000 2000\n" + "".join(f"{v} {v % 2000 + 1}\n"
                                         for v in range(1, 2001)))
    code, out, _ = run(capsys, "oracle", str(p), "--json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["omega"], obj["count_maximal"], obj["nodes_visited"]) == \
        (2, 2000, 2000)


def test_oracle_maghout(capsys, tmp_path):
    p = tmp_path / "mm3.edges"
    p.write_text(format_edge_list(moon_moser(3)))
    code, out, _ = run(capsys, "oracle", str(p), "--method", "maghout", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["omega"] == 3 and obj["count_maximal"] == 27
    assert obj["method"] == "maghout"


def test_validate_moon_moser(capsys, tmp_path):
    p = tmp_path / "mm3.edges"
    p.write_text(format_edge_list(moon_moser(3)))
    code, out, _ = run(capsys, "validate", str(p), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["heuristic_size"] == 3
    assert obj["omega"] == 3
    assert obj["count_maximal"] == 27
    assert obj["count_maghout"] == 27
    assert obj["agree"] is True


def test_validate_g4(capsys, tmp_path, g4):
    p = tmp_path / "g4.edges"
    p.write_text(format_edge_list(g4.graph))
    code, out, _ = run(capsys, "validate", str(p), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["heuristic_size"] == 5 and obj["omega"] == 5
    assert obj["agree"] is True
    # the complement is far beyond the default clause budget; reported, not fatal
    assert obj["count_maghout"] is None and "maghout_error" in obj


def test_validate_random_graph_reports_measured_agreement(capsys, tmp_path):
    from conftest import gnp
    p = tmp_path / "g30.edges"
    p.write_text(format_edge_list(gnp(30, 0.5, seed=1)))
    code, out, _ = run(capsys, "validate", str(p), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["heuristic_size"] <= obj["omega"]
    assert obj["agree"] in (True, False)


def test_exit_code_input_error(capsys):
    code, _, err = run(capsys, "trace", "/no/such/file")
    assert code == 1


def test_exit_code_budget_exceeded(capsys, g3_path):
    code, _, err = run(capsys, "oracle", g3_path, "--budget", "2")
    assert code == 2
    assert "budget" in err


def test_one_parser_serves_calls_without_leaking_options(capsys, g3_path):
    from tricliq.cli import build_parser

    assert build_parser() is build_parser()
    code, out, err = run(capsys, "oracle", g3_path, "--budget", "5", "--json")
    assert (code, out) == (2, "") and "budget" in err
    code, out, _ = run(capsys, "oracle", g3_path, "--json")
    assert code == 0 and json.loads(out)["omega"] == 5
    assert run(capsys, "generate", "nonsense-family", "4")[0] == 1
    code, out, _ = run(capsys, "oracle", g3_path, "--json")
    assert code == 0 and json.loads(out)["omega"] == 5


@pytest.mark.parametrize("argv", [
    ("oracle", "--budget", "-1"),
    ("oracle", "--method", "maghout", "--budget", "-1"),
    ("validate", "--budget", "-1"),
    ("validate", "--maghout-budget", "-5"),
], ids=["oracle", "oracle-maghout", "validate", "validate-maghout"])
def test_negative_budget_is_an_argument_error(capsys, g3_path, argv):
    command, *options = argv
    code, out, err = run(capsys, command, g3_path, *options)
    assert code == 1
    assert out == ""
    assert "must be at least 0" in err and "budget exceeded" not in err


def test_non_integer_budget_is_an_argument_error(capsys, g3_path):
    code, out, err = run(capsys, "oracle", g3_path, "--budget", "abc")
    assert (code, out) == (1, "")
    assert "invalid int value: 'abc'" in err


def test_zero_budget_is_exceeded_at_once(capsys, g3_path):
    code, _, err = run(capsys, "oracle", g3_path, "--budget", "0")
    assert code == 2
    assert "budget exceeded" in err


def test_exit_code_out_of_memory(capsys, monkeypatch, g3_path):
    import tricliq.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "full_trace", exhausted)
    code, out, err = run(capsys, "trace", g3_path)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "input too large" in err


def test_exact_searches_need_no_recursion_depth(capsys, tmp_path):
    # both exact searches are loops, so an omega of 80 needs no frames
    # beyond the CLI's own call stack: 40 spare frames are plenty
    p = tmp_path / "k80.edges"
    p.write_text(format_edge_list(complete(80)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        oracle = run(capsys, "oracle", str(p), "--json")
        validate = run(capsys, "validate", str(p), "--json")
    finally:
        sys.setrecursionlimit(limit)
    code, out, err = oracle
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert (obj["omega"], obj["nodes_visited"]) == (80, 81)
    code, out, err = validate
    assert code == 0
    obj = json.loads(out)
    assert obj["omega"] == obj["heuristic_size"] == 80
    assert obj["agree"] is True


def test_validate_holds_one_clique_listing_at_a_time(capsys, tmp_path):
    # the cocktail-party graph CP(12) has 2^12 maximal cliques; validate
    # keeps each oracle's count, so Bron-Kerbosch's listing is freed before
    # Maghout expands: 4.2 MiB peak, and 7.0 MiB when both were held
    p = tmp_path / "cp12.edges"
    p.write_text(format_edge_list(complete_multipartite([2] * 12)))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "validate", str(p), "--json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    obj = json.loads(out)
    assert obj["count_maximal"] == obj["count_maghout"] == 2 ** 12
    assert peak < 5.5 * 2 ** 20


@pytest.mark.parametrize("argv, expected", [
    (["clique", "{k3}", "--json"], 0),
    (["clique", "{k3}.missing"], 1),
    (["oracle", "{k3}", "--budget", "0"], 2),
], ids=["clique", "missing-file", "budget"])
def test_python_dash_m_exits_with_mains_code(capsys, monkeypatch, tmp_path, argv,
                                             expected):
    # ``python -m tricliq.cli``, run in this process: the module runs afresh
    # as __main__ and hands main's return value to sys.exit.  runpy warns
    # if the module is already imported, so it leaves sys.modules meanwhile
    k3 = tmp_path / "k3.edges"
    k3.write_text(format_edge_list(complete(3)))
    argv = [a.format(k3=k3) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == expected
    monkeypatch.setattr(sys, "argv", ["tricliq", *argv])
    monkeypatch.delitem(sys.modules, "tricliq.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("tricliq.cli", run_name="__main__")
    assert exc.value.code == expected
    assert capsys.readouterr() == (out, err)


def test_validate_enumerates_triangles_once(capsys, monkeypatch, g3_path):
    import tricliq.cli as cli
    import tricliq.pruning as pruning

    calls = []

    def counted(g):
        calls.append(g)
        return enumerate_triangles(g)

    monkeypatch.setattr(cli, "enumerate_triangles", counted)
    monkeypatch.setattr(pruning, "enumerate_triangles", counted)
    code, out, _ = run(capsys, "validate", g3_path, "--json")
    assert code == 0
    assert json.loads(out)["triangles"] == 39
    # g3's first candidate subgraph is already a clique, so no recursion
    assert len(calls) == 1


def test_readme_command_block_runs_as_written(capsys, monkeypatch, tmp_path):
    # each ``tricliq ...`` line of the README, trailing comment dropped, in
    # order in an empty directory: the block writes every file it reads
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("tricliq ")]
    monkeypatch.chdir(tmp_path)
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        commands.add(argv[0])
        code = main(argv)
        assert code == 0, (line, capsys.readouterr().err)
    assert commands == {"generate", "triangles", "trace", "clique", "oracle",
                        "validate"}


def test_exit_code_usage_error(capsys):
    assert main(["generate", "nonsense-family", "4"]) == 1


def test_separable_input_warns(capsys, tmp_path):
    p = tmp_path / "path3.edges"
    p.write_text("3 2\n1 2\n2 3\n")
    code, _, err = run(capsys, "clique", str(p))
    assert code == 0
    assert "warning" in err


@pytest.mark.parametrize("argv, expected", [
    (["generate", "moon-moser", "4"], 0),
    (["triangles", "{g3}"], 0),
    (["triangles", "{g3}", "--json"], 0),
    (["trace", "{g3}"], 0),
    (["trace", "{g3}", "--json"], 0),
    (["clique", "{g3}"], 0),
    (["clique", "{g3}", "--json"], 0),
    (["clique", "{g3}", "--all-min-edges"], 0),
    (["clique", "{g3}", "--all-min-edges", "--json"], 0),
    (["oracle", "{mm6}"], 0),
    (["oracle", "{mm6}", "--method", "maghout"], 0),
    (["oracle", "{mm6}", "--budget", "3"], 2),
    (["validate", "{mm6}"], 0),
    (["validate", "{mm6}", "--budget", "3"], 2),
    (["clique", "{dup}"], 1),
], ids=["generate", "triangles", "triangles-json", "trace", "trace-json",
        "clique", "clique-json", "clique-all", "clique-all-json", "oracle",
        "oracle-maghout", "oracle-budget", "validate", "validate-budget",
        "clique-duplicate-edge"])
def test_commands_leave_no_cyclic_garbage(capsys, tmp_path, g3_path, argv, expected):
    # main pauses the cyclic collector, so whatever a command leaves in a
    # reference cycle stays until some later collection: every exit must
    # leave nothing.  Building argparse's parser leaves cycles of its own,
    # once per process, so the shared parser is built before the count.
    mm6 = tmp_path / "mm6.edges"
    mm6.write_text(format_edge_list(moon_moser(6)))
    dup = tmp_path / "dup.edges"
    dup.write_text("3 2\n1 2\n2 1\n")
    argv = [a.format(g3=g3_path, mm6=mm6, dup=dup) for a in argv]
    build_parser()
    codes = []
    assert cyclic_garbage(lambda: codes.append(main(argv))) == 0
    assert codes == [expected]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_pauses_the_collector_and_restores_its_state(
        capsys, monkeypatch, g3_path, enabled):
    import tricliq.cli as cli

    during = []

    def watched(path):
        during.append(gc.isenabled())
        return load_graph(path)

    def failing(error):
        def trace(*args, **kwargs):
            raise error
        return trace

    monkeypatch.setattr(cli, "load_graph", watched)
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["oracle", g3_path]) == 0
        assert gc.isenabled() is enabled
        assert main(["trace", g3_path + ".missing"]) == 1
        assert gc.isenabled() is enabled
        assert main(["oracle", g3_path, "--budget", "2"]) == 2
        assert gc.isenabled() is enabled
        assert main(["generate", "nonsense-family", "4"]) == 1  # argparse
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "full_trace", failing(RuntimeError("stuck")))
        assert main(["trace", g3_path]) == 3
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "full_trace", failing(LookupError("escapes")))
        with pytest.raises(LookupError):
            main(["trace", g3_path])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    # each command that got as far as reading its input ran paused
    assert during == [False] * 5
