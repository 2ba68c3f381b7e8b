import random
import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import tricliq.io as io_module
from tricliq import (
    FormatError,
    Graph,
    complete,
    format_dimacs,
    format_edge_list,
    load_graph,
    moon_moser,
    parse_dimacs,
    parse_edge_list,
)
from tricliq.io import _dimacs_lines, _edge_list_lines, loads


def test_edge_list_round_trip(g3):
    text = format_edge_list(g3.graph)
    again = parse_edge_list(text)
    assert again == g3.graph


def test_dimacs_round_trip(g4):
    text = format_dimacs(g4.graph)
    assert text.startswith("p edge 27 138\n")
    assert parse_dimacs(text) == g4.graph


def test_loads_sniffs_both_formats():
    g = moon_moser(2)
    assert loads(format_edge_list(g)) == g
    assert loads(format_dimacs(g)) == g


def test_dimacs_comments_ignored():
    g = parse_dimacs("c a comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize("text,line", [
    ("3\n1 2\n", 1),             # bad header
    ("3 2\n1 2\n1 2 3\n", 3),    # bad edge row
    ("3 2\n1 2\nx y\n", 3),      # non-integer endpoints
    ("3 5\n1 2\n2 3\n", 1),      # edge count mismatch
])
def test_edge_list_errors_carry_line_numbers(text, line):
    with pytest.raises(FormatError) as err:
        parse_edge_list(text)
    assert err.value.line == line


@pytest.mark.parametrize("text,line", [
    ("3 2\n1 2\n\n2 1\n", 4),      # duplicate, endpoints flipped
    ("3 2\n1 2\n# c\n2 2\n", 4),   # self-loop
    ("3 2\n1 2\n2 4\n", 3),       # endpoint out of range
    ("0 0\n", 1),                  # vertex count: the header
])
def test_edge_list_graph_errors_name_the_offending_row(text, line):
    with pytest.raises(FormatError) as err:
        parse_edge_list(text)
    assert err.value.line == line


@pytest.mark.parametrize("text,line", [
    ("p edge 3 2\ne 1 2\ne 2 1\n", 3),          # duplicate, endpoints flipped
    ("c x\np edge 3 2\ne 1 2\nc y\ne 3 3\n", 5),  # self-loop
    ("p edge 3 2\ne 4 1\ne 1 2\n", 2),          # endpoint out of range
    ("c x\np edge 0 0\n", 2),                   # vertex count: the p line
])
def test_dimacs_graph_errors_name_the_offending_record(text, line):
    with pytest.raises(FormatError) as err:
        parse_dimacs(text)
    assert err.value.line == line


@pytest.mark.parametrize("parse,text", [
    (parse_edge_list, "3 1\n5 3\n"),
    (parse_dimacs, "p edge 3 1\ne 5 3\n"),
], ids=["edge-list", "dimacs"])
def test_range_error_names_the_pair_as_given(parse, text):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert str(err.value) == "line 2: edge (5,3) outside 1..3"


@pytest.mark.parametrize("parse,text,message", [
    (parse_edge_list, "", "empty input"),
    (parse_dimacs, "p foo 1 2", "expected 'p edge n m'"),
    (parse_dimacs, "p edge x y", "expected integers in problem line"),
    (parse_dimacs, "c hi", "missing problem line"),
], ids=["empty", "problem-kind", "problem-ints", "no-problem-line"])
def test_line_parser_messages(parse, text, message):
    # loads rejects empty input before either parser sees it, so the edge
    # list's own "empty input" is reached by calling it directly
    with pytest.raises(FormatError) as err:
        parse(text)
    assert str(err.value) == f"line 1: {message}"


def test_dimacs_errors():
    with pytest.raises(FormatError):
        parse_dimacs("e 1 2\n")  # edge before problem line
    with pytest.raises(FormatError):
        parse_dimacs("p edge 3 1\n")  # declared edge missing
    with pytest.raises(FormatError):
        parse_dimacs("p edge 3 1\nq 1 2\n")
    for text in ("p edge 5 1\ne 1 2\np edge 5 1\n",
                 "p edge 5 1\ne 4 5\np edge 3 1\n"):
        with pytest.raises(FormatError, match="duplicate problem line") as exc:
            parse_dimacs(text)
        assert exc.value.line == 3


def test_file_round_trip(tmp_path):
    g = complete(5)
    p = tmp_path / "k5.edges"
    p.write_text(format_edge_list(g), encoding="utf-8")
    assert load_graph(p) == g
    p2 = tmp_path / "k5.col"
    p2.write_text(format_dimacs(g), encoding="utf-8")
    assert load_graph(p2) == g


@pytest.mark.parametrize("data", [
    b"\xef\xbb\xbf3 2\n1 2\n2 3\n",                # edge list
    b"\xef\xbb\xbfp edge 3 2\ne 1 2\ne 2 3\n",    # DIMACS, sniffed as such
    b"\xef\xbb\xbf# a comment\n3 2\n1 2\n2 3\n",  # leading comment
])
def test_byte_order_mark_is_ignored(tmp_path, data):
    p = tmp_path / "bom.txt"
    p.write_bytes(data)
    assert load_graph(p) == Graph(3, [(1, 2), (2, 3)])


def test_undecodable_byte_after_byte_order_mark_keeps_its_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"\xef\xbb\xbf3 1\n\xff 2\n")
    with pytest.raises(FormatError, match="byte 0xff") as err:
        load_graph(p)
    assert err.value.line == 2


def _outcome(parse, text):
    try:
        g = parse(text)
    except FormatError as exc:
        return "error", str(exc), exc.line
    return "graph", g.n, g.edges, g._up


BAD_TOKENS = ["+3", "1_0", "\u0663", "\uff13", "-1", "x", "3.0", "0"]


@st.composite
def graph_texts(draw):
    """An edge-list or DIMACS text of a small graph, clean or mutated: pairs
    repeated (perhaps flipped), self-loops, endpoints out of range, rows of
    one or three tokens, comments, blank lines, odd tokens, labels with
    leading zeros, a wrong edge count, a header n above 2m with an edge to
    the label n, and any of CRLF, tabs, leading and trailing blanks."""
    dimacs = draw(st.booleans())
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = [[str(v), str(u)] if draw(st.booleans()) else [str(u), str(v)]
            for u, v in chosen]
    count_shift = 0
    vertex = st.integers(1, n).map(str)
    kinds = draw(st.lists(st.sampled_from([
        "duplicate", "self-loop", "out-of-range", "short", "long", "split",
        "token", "padded", "comment", "blank", "count", "high"]), max_size=3))
    for kind in kinds:
        at = draw(st.integers(0, len(rows)))
        if kind == "duplicate" and rows:
            row = draw(st.sampled_from(rows))
            rows.insert(at, row[::-1] if draw(st.booleans()) else list(row))
        elif kind == "self-loop":
            rows.insert(at, [draw(vertex)] * 2)
        elif kind == "out-of-range":
            rows.insert(at, [draw(vertex), draw(st.sampled_from(["0", str(n + 1)]))])
        elif kind == "short":
            rows.insert(at, [draw(vertex)])
        elif kind == "long":
            rows.insert(at, [draw(vertex) for _ in range(3)])
        elif kind == "split":  # "1 2 3\n4": as many tokens as two good rows
            rows[at:at] = [[draw(vertex) for _ in range(3)], [draw(vertex)]]
        elif kind == "token" and any(rows):
            row = draw(st.sampled_from([row for row in rows if row]))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "padded" and (data := [row for row in rows
                                            if row and row[0] not in ("c", "#")]):
            row = draw(st.sampled_from(data))  # "01", "007"
            i = draw(st.integers(0, len(row) - 1))
            row[i] = draw(st.sampled_from(["0", "00"])) + row[i]
        elif kind == "comment":
            rows.insert(at, ["c" if dimacs else "#", "note"])
        elif kind == "blank":
            rows.insert(at, [])
        elif kind == "count":
            count_shift = draw(st.sampled_from([-1, 1]))
    if "high" in kinds:  # mostly isolated vertices, and a label above 2m
        m = sum(1 for row in rows if row and row[0] not in ("c", "#")) + 1
        n = max(n, 2 * m) + draw(st.integers(1, 3))
        rows.insert(draw(st.integers(0, len(rows))), [draw(vertex), str(n)])
    m = sum(1 for row in rows if row and row[0] not in ("c", "#")) + count_shift
    header = ["p", "edge", str(n), str(m)] if dimacs else [str(n), str(m)]
    lines = [header] + [["e"] + row if dimacs and row and row[0] != "c" else row
                        for row in rows]
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    pad = draw(st.sampled_from(["", " ", "\t "]))
    lead = draw(st.sampled_from(["", " "]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lead + sep.join(row) + pad for row in lines)
    return dimacs, text + draw(st.sampled_from(["", eol, eol + eol, " "]))


@settings(max_examples=500, deadline=None)
@given(graph_texts())
@example((False, "4 2\n1 2 3\n4\n"))  # as many tokens as two good rows
@example((True, "p edge 4 2\ne 1 2 3\ne 4\n"))
@example((False, "4 1\n1\r2\n"))  # a lone CR breaks the line
@example((False, "8 2\n01 2\n3 007\n"))  # leading zeros
@example((True, "p edge 6 1\ne 6 1\n"))  # n above 2m, and the label n
def test_bulk_parse_matches_line_parser(case):
    dimacs, text = case
    if dimacs:
        assert _outcome(parse_dimacs, text) == _outcome(_dimacs_lines, text)
    else:
        assert _outcome(parse_edge_list, text) == _outcome(_edge_list_lines, text)


def test_bulk_parse_ignores_numbers_past_the_int_conversion_limit():
    huge = "9" * 5000
    for text in (f"{huge} 1\n1 2\n", f"3 1\n1 {huge}\n",
                 f"p edge 3 1\ne {huge} 2\n"):
        parse, lines = ((parse_dimacs, _dimacs_lines) if text[0] == "p"
                        else (parse_edge_list, _edge_list_lines))
        assert _outcome(parse, text) == _outcome(lines, text)


def _sparse_dimacs(n, m, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return "".join([f"p edge {n} {m}\n"] + [f"e {u} {v}\n" for u, v in edges])


def test_clean_file_takes_the_bulk_path(monkeypatch):
    def refuse(text):
        raise AssertionError("a clean file reached the line parser")

    text = _sparse_dimacs(12000, 60000, seed=7)
    monkeypatch.setattr(io_module, "_dimacs_lines", refuse)
    monkeypatch.setattr(io_module, "_edge_list_lines", refuse)
    g = loads(text)
    assert (g.n, g.m) == (12000, 60000)
    assert loads(format_edge_list(g).replace("\n", "\r\n")) == g
    # n = 2m, and the label n is the lookup's last
    path = Graph(4, [(1, 2), (4, 3)])
    assert loads("4 2\n1 2\n4 3\n") == path
    assert loads("p edge 4 2\ne 1 2\ne 4 3\n") == path


@pytest.mark.parametrize("text, in_bulk", [
    ("8 2\n01 2\n3 007\n", True),            # leading zeros
    ("p edge 8 2\ne 01 2\ne 3 007\n", True),
    ("6 1\n1 6\n", True),                    # n above 2m, and a label above 2m
    ("p edge 6 1\ne 6 1\n", True),
    ("6 1\n1 07\n", False),                  # ... padded, and out of range
    ("p edge 6 1\ne 7 1\n", False),
])
def test_labels_outside_the_lookup_are_read_in_bulk(text, in_bulk):
    # a token the lookup lacks is int()-ed on its own; only a graph that
    # Graph rejects goes to the line parser
    parse = "_dimacs_lines" if text[0] == "p" else "_edge_list_lines"
    lines = getattr(io_module, parse)
    with mock.patch.object(io_module, parse, wraps=lines) as spy:
        assert _outcome(loads, text) == _outcome(lines, text)
    assert spy.call_count == (0 if in_bulk else 1)


def test_bulk_parse_shares_one_int_per_label():
    # the 120000 endpoints of 12000 labels are 12000 int objects
    dimacs = loads(_sparse_dimacs(12000, 60000, seed=7))
    for g in (dimacs, loads(format_edge_list(dimacs))):
        labels = {x for e in g.edges for x in e}
        assert len({id(x) for e in g.edges for x in e}) == len(labels)


def _traced(text):
    """The graph of ``text``, the bytes it holds and the peak bytes of
    parsing it, both under ``tracemalloc``."""
    tracemalloc.start()
    try:
        g = loads(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, held, peak


def test_parsing_a_large_file_costs_little_memory():
    # tokens, pairs and the finished graph: the token list must be gone
    # before the graph is built.  Python 3.11: 9.08 MiB held (158.6 bytes
    # per edge) and a 10.61 MiB peak; with an int per endpoint token
    # instead of one per label, 11.85 MiB (207 bytes per edge) and 13.39.
    g, held, peak = _traced(_sparse_dimacs(12000, 60000, seed=7))
    assert g.m == 60000
    assert held <= 185 * g.m
    assert peak <= 12 << 20


def test_label_lookup_is_bounded_by_the_edges():
    # a lookup over every label up to n would peak at 1.53 times the graph
    # of this text, n + 1 empty dicts; with none built for n > 2m, the parse
    # peaks where building that graph does, 1.12 times (Python 3.11)
    n = io_module._LOOKUP_LABELS
    g, held, peak = _traced(f"{n} 2\n1 2\n{n - 1} {n}\n")
    assert (g.n, g.edges) == (n, ((1, 2), (n - 1, n)))
    assert peak <= 1.25 * held


@pytest.mark.parametrize("extra", [0, 1])
def test_label_lookup_stops_at_its_cap(extra):
    # past _LOOKUP_LABELS labels no lookup is built, and every endpoint is
    # int()-ed on its own: on a large file the lookups would cost more
    n = io_module._LOOKUP_LABELS + extra
    text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n))
    g = loads(text)
    assert g == _edge_list_lines(text)
    ends = [x for e in g.edges for x in e if x > 256]  # not cached small ints
    shared = n - 256 if not extra else len(ends)
    assert len({id(x) for x in ends}) == shared


@st.composite
def sniff_texts(draw):
    pieces = ["#", "c", "p", "e", "1", " ", "\t", "\n", "\r", "\x0c",
              "\x1c", "\x85", "\u2028", "\xa0", "x"]
    return "".join(draw(st.lists(st.sampled_from(pieces), max_size=12)))


def _sniff_by_lines(text):
    """The format loads() picks, found by splitting every line up front."""
    for ln in text.splitlines():
        s = ln.strip()
        if not s:
            continue
        if s.startswith(("c", "p", "e")):
            return "dimacs"
        if not s.startswith("#"):
            return "edge list"
    return "empty"


@settings(max_examples=300, deadline=None)
@given(sniff_texts())
def test_loads_sniffs_the_first_data_line(text):
    with mock.patch.object(io_module, "parse_dimacs", lambda t: "dimacs"), \
            mock.patch.object(io_module, "parse_edge_list", lambda t: "edge list"):
        try:
            picked = loads(text)
        except FormatError as exc:
            assert (str(exc), exc.line) == ("line 1: empty input", 1)
            picked = "empty"
    assert picked == _sniff_by_lines(text)


LINE_BREAKS = [c for c in map(chr, range(0x110000))
               if len(f"a{c}b".splitlines()) == 2]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_loads_ends_a_comment_where_splitlines_does(brk):
    with mock.patch.object(io_module, "parse_dimacs", lambda t: "dimacs"):
        assert loads(f"# note{brk}p edge 1 0") == "dimacs"
