import pytest

from tricliq import (
    FormatError,
    complete,
    format_dimacs,
    format_edge_list,
    load_graph,
    moon_moser,
    parse_dimacs,
    parse_edge_list,
)
from tricliq.io import loads


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
