"""Reading and writing graphs as edge-list text and DIMACS clique files."""

from __future__ import annotations

import os

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
    line = header_line

    def pairs():
        nonlocal line
        for line, pair in records:
            yield pair

    try:
        return Graph(n, pairs())
    except GraphError as exc:
        raise FormatError(str(exc), line) from exc


def parse_edge_list(text: str) -> Graph:
    """Parse the plain format: first line ``n m``, then m lines ``u v``."""
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


def loads(text: str) -> Graph:
    """Parse either supported format, sniffing on the first data line."""
    for ln in text.splitlines():
        s = ln.strip()
        if not s:
            continue
        if s.startswith(("c", "p", "e")):
            return parse_dimacs(text)
        if not s.startswith("#"):
            return parse_edge_list(text)
    raise FormatError("empty input", 1)


def _utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as the parsers' splitlines() does; "x" is the bad byte
        before = data[:exc.start].decode("utf-8")
        line = len((before + "x").splitlines())
        raise FormatError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8 text", line) from None


def load_graph(path: str | os.PathLike) -> Graph:
    """Read a UTF-8 graph file in either format; undecodable bytes are a
    ``FormatError`` at the line that holds the first of them."""
    with open(path, "rb") as fh:
        return loads(_utf8(fh.read()))
