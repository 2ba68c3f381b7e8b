"""Reading and writing graphs as edge-list text and DIMACS clique files.

Each parser has two paths.  A clean file (the header, then one record per
line of unsigned ASCII decimals, with trailing blanks only) is split into
tokens once, and the pairs are handed to ``Graph`` in bulk.  Any other file
(comments, blank lines, ``p col``, signs, underscores or non-ASCII digits in
numbers, an edge count the header does not declare), and any file ``Graph``
rejects, goes to the line-by-line parser.  That parser is the only source of
``FormatError``, so both paths give the same graph, and every error names the
same line.

The bulk path looks its endpoints up in one dict from the canonical decimals
``"0"`` to ``str(n)`` to their ints, so every endpoint of a label is the same
int object, and a lookup costs less than an ``int()`` parse.  Any other
token (leading zeros, a label above n) is ``int()``-ed on its own.  The dict
is built only when n <= 2m, so it is never larger than the 2m endpoint
tokens, and n <= ``_LOOKUP_LABELS``: past about 16000 labels its lookups
miss the CPU cache, and on a file in random edge order they cost more than
the ``int()`` parses they replace (on 2 vCPUs, Python 3.11, 48000 labels of
degree 10 parsed in about 1.6x the time).  Without the dict every endpoint
gets its own int, as ``int()`` gives it.
"""

from __future__ import annotations

import os
import re

from .graph import Graph, GraphError


class FormatError(GraphError):
    """Malformed graph file; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _build(n: int, records: list[tuple[int, tuple[int, int]]],
           header_line: int) -> Graph:
    """The graph on ``n`` vertices with the pairs of the ``(line, pair)``
    records.  A rejected pair (duplicate, self-loop, endpoint out of range)
    is reported at its own line, a rejected vertex count at ``header_line``.
    """
    try:
        return Graph(n, [pair for _, pair in records])
    except GraphError as exc:
        line = header_line if exc.position is None else records[exc.position][0]
        raise FormatError(str(exc), line) from exc


# Each pattern finds the first line that is not a clean record: two unsigned
# ASCII decimals (an edge-list header or row), or ``e`` and two of them (a
# DIMACS edge), with blanks around them.  A file is clean when the search finds
# no such line before its trailing whitespace.  This is one search, not a
# fullmatch of a repeated line group, because the regex engine keeps state for
# every repetition of a group: about 30 MiB on a 60000-line file.
_BAD_EDGE_ROW = re.compile(r"^(?![ \t]*[0-9]+[ \t]+[0-9]+[ \t]*\r?$)",
                           re.ASCII | re.MULTILINE)
_BAD_DIMACS_EDGE = re.compile(r"^(?![ \t]*e[ \t]+[0-9]+[ \t]+[0-9]+[ \t]*\r?$)",
                              re.ASCII | re.MULTILINE)
_DIMACS_HEADER = re.compile(r"[ \t]*p[ \t]+edge[ \t]+[0-9]+[ \t]+[0-9]+[ \t]*(?:\r?\n|\Z)",
                            re.ASCII)


_LOOKUP_LABELS = 1 << 14


class _Labels(dict):
    """Canonical decimal -> int; any other digit string is ``int()``-ed."""

    __missing__ = staticmethod(int)


def _bulk_graph(text: str, start: int, bad_line: re.Pattern,
                header_tokens: int, row_tokens: int) -> Graph | None:
    """The graph of a clean file, or ``None`` for the line parser to decide.

    The header is the first ``header_tokens`` tokens and ends with ``n m``.
    Past ``start``, ``bad_line`` finds any line that is not ``row_tokens``
    tokens ending with the two endpoints.
    """
    if bad_line.search(text, start, len(text.rstrip())):
        return None
    tokens = text.split()
    try:
        n, m = int(tokens[header_tokens - 2]), int(tokens[header_tokens - 1])
        if len(tokens) != header_tokens + row_tokens * m:
            return None
        # one int object per label; the module docstring says when
        labels = range(n + 1 if n <= min(2 * m, _LOOKUP_LABELS) else 0)
        label = _Labels(zip(map(str, labels), labels))
        first = header_tokens + row_tokens - 2
        us = list(map(label.__getitem__, tokens[first::row_tokens]))
        vs = list(map(label.__getitem__, tokens[first + 1::row_tokens]))
    except ValueError:  # a digit string past the int conversion limit
        return None
    del tokens, label  # the token strings go before the graph is built
    try:
        return Graph(n, zip(us, vs))
    except GraphError:
        return None


def parse_edge_list(text: str) -> Graph:
    """Parse the plain format: first line ``n m``, then m lines ``u v``."""
    g = _bulk_graph(text, 0, _BAD_EDGE_ROW, 2, 2)
    return g or _edge_list_lines(text)


def _edge_list_lines(text: str) -> Graph:
    """The line-by-line edge-list parser, which names the line of any error."""
    lines = text.splitlines()
    rows = [
        (i + 1, ln.split())
        for i, ln in enumerate(lines)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not rows:
        raise FormatError("empty input", 1)
    lineno, head = rows[0]
    if len(head) != 2:
        raise FormatError("expected header 'n m'", lineno)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("expected integer header 'n m'", lineno) from None
    records = []
    for lineno, tok in rows[1:]:
        if len(tok) != 2:
            raise FormatError("expected 'u v'", lineno)
        try:
            records.append((lineno, (int(tok[0]), int(tok[1]))))
        except ValueError:
            raise FormatError("expected integer endpoints", lineno) from None
    if len(records) != m:
        raise FormatError(f"header declares {m} edges, found {len(records)}",
                          rows[0][0])
    return _build(n, records, rows[0][0])


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def parse_dimacs(text: str) -> Graph:
    """Parse the DIMACS ascii clique format (``p edge n m`` / ``e u v``)."""
    header = _DIMACS_HEADER.match(text)
    g = header and _bulk_graph(text, header.end(), _BAD_DIMACS_EDGE, 4, 3)
    return g or _dimacs_lines(text)


def _dimacs_lines(text: str) -> Graph:
    """The line-by-line DIMACS parser, which names the line of any error."""
    n = None
    declared_m = None
    problem_line = 1
    records = []
    for i, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("c"):
            continue
        tok = ln.split()
        if tok[0] == "p":
            if n is not None:
                raise FormatError("duplicate problem line", i)
            if len(tok) != 4 or tok[1] not in ("edge", "col"):
                raise FormatError("expected 'p edge n m'", i)
            try:
                n, declared_m = int(tok[2]), int(tok[3])
            except ValueError:
                raise FormatError("expected integers in problem line", i) from None
            problem_line = i
        elif tok[0] == "e":
            if n is None:
                raise FormatError("edge before problem line", i)
            if len(tok) != 3:
                raise FormatError("expected 'e u v'", i)
            try:
                records.append((i, (int(tok[1]), int(tok[2]))))
            except ValueError:
                raise FormatError("expected integer endpoints", i) from None
        else:
            raise FormatError(f"unknown record {tok[0]!r}", i)
    if n is None:
        raise FormatError("missing problem line", 1)
    if declared_m != len(records):
        raise FormatError(
            f"problem line declares {declared_m} edges, found {len(records)}",
            problem_line)
    return _build(n, records, problem_line)


def format_dimacs(g: Graph) -> str:
    out = [f"p edge {g.n} {g.m}"]
    out.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


# the characters str.splitlines() breaks lines at
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_NON_SPACE = re.compile(r"\S")


def loads(text: str) -> Graph:
    """Parse either supported format, sniffing on the first data line."""
    pos = 0
    while first := _NON_SPACE.search(text, pos):
        c = first.group()
        if c in "cpe":
            return parse_dimacs(text)
        if c != "#":
            return parse_edge_list(text)
        comment_end = _LINE_BREAK.search(text, first.end())
        if comment_end is None:
            break
        pos = comment_end.end()
    raise FormatError("empty input", 1)


def _utf8(data: bytes) -> str:
    """The text of UTF-8 bytes, without a leading byte-order mark."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # numbered as the parsers' splitlines() does; "x" is the bad byte
        before = data[:exc.start].decode("utf-8")
        line = len((before + "x").splitlines())
        raise FormatError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8 text", line) from None


def load_graph(path: str | os.PathLike) -> Graph:
    """Read a UTF-8 graph file in either format, with or without a leading
    byte-order mark; undecodable bytes are a ``FormatError`` at the line that
    holds the first of them."""
    with open(path, "rb") as fh:
        return loads(_utf8(fh.read()))
