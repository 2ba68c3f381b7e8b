"""Line coverage of the ``tricliq`` that Python would import (the install,
or the checkout's ``src``) by the tier-1 tests, with the standard library
alone.  From the repository root:

    PYTHONPATH=src python tools/line_coverage.py -W error

Its arguments are pytest options.  The package is located, not imported, so
that its modules' top levels run under the tracer too.  pytest then runs
this repository's ``tests/`` in this process under one ``sys.settrace``
tracer, installed once, that records each line run in a file of the
package.  Nothing replaces it: Hypothesis installs a tracer only when
``sys.gettrace()`` is ``None``, and nothing in the package recurses, so no
``RecursionError`` inside it switches it off (were it off, the lines after
would count as not run).  The script exits 1 if the tests fail, or if an
executable line (one the compiler gave an instruction) never ran outside
the statements named in ``ALLOWED``.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent.parent / "tests"

# (file of the package, the first line of a statement, stripped): why no
# test runs it.  The entry allows every line of that statement (or except
# clause), and must name exactly one
ALLOWED = {
    ("pruning.py", 'raise RuntimeError("pruning removed nothing; invariant violated")'):
        "the peel's stall guard: every iteration removes the triangles of its "
        "minimum edges, so it cannot stall; the CLI's exit 3 is tested with a "
        "stand-in that raises the same message",
}


def executable_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def allowed_lines(name: str, source: str) -> set[int]:
    """The lines of the statements that ``ALLOWED`` names in file ``name``."""
    text = source.splitlines()
    spans: dict[str, list[range]] = {
        line: [] for file, line in ALLOWED if file == name}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            first = text[node.lineno - 1].strip()
            if first in spans:
                spans[first].append(range(node.lineno, node.end_lineno + 1))
    for first, found in spans.items():
        if len(found) != 1:
            raise SystemExit(f"ALLOWED entry {(name, first)} names "
                             f"{len(found)} statements")
    return {line for found in spans.values() for line in found[0]}


class CodeLines:
    """The local trace function of one code object of the package.

    It keeps the lines of that code not yet seen, and once none is left,
    takes itself out of ``tracers``, so that later calls of the code go
    untraced.  It returns itself, not a closure over itself: a closure
    would be a reference cycle, garbage once dropped, and the tests count
    cyclic garbage.
    """

    __slots__ = ("code", "todo", "ran", "tracers")

    def __init__(self, code, todo: set[int], ran: set[int], tracers: dict):
        self.code, self.todo, self.ran, self.tracers = code, todo, ran, tracers

    def __call__(self, frame, event, arg):
        if event == "line":
            line = frame.f_lineno
            if line in self.todo:
                self.todo.discard(line)
                self.ran.add(line)
                if not self.todo:
                    self.tracers[self.code] = None
        return self


class LineTracer:
    """The global trace function: records the lines run in the files of
    the package, through one ``CodeLines`` per code object of it.  Allowed
    lines are not waited for, so that a code object holding one, such as
    the peel's, still stops being traced."""

    def __init__(self, package: Path, allowed: dict[Path, set[int]]) -> None:
        self.package, self.allowed = package, allowed
        self.ran: dict[Path, set[int]] = {}
        self.tracers: dict[object, CodeLines | None] = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        try:
            return self.tracers[code]
        except KeyError:
            local = self.tracers[code] = self.new_local(code)
            return local

    def new_local(self, code) -> CodeLines | None:
        path = Path(code.co_filename).resolve()
        if self.package not in path.parents:
            return None
        todo = {line for _, _, line in code.co_lines() if line}
        todo -= self.allowed.get(path, set())
        # a function's first line (its def, or its first decorator) runs in
        # the enclosing code, and no line event reports it for its own
        if code.co_name != "<module>":
            todo.discard(code.co_firstlineno)
        if not todo:
            return None
        return CodeLines(code, todo, self.ran.setdefault(path, set()),
                         self.tracers)


def main(argv: list[str]) -> int:
    spec = importlib.util.find_spec("tricliq")
    if spec is None:
        raise SystemExit("tricliq is not importable: install it, or set PYTHONPATH=src")
    package = Path(spec.origin).resolve().parent
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(package.rglob("*.py"))}
    allowed = {path: allowed_lines(str(path.relative_to(package)), source)
               for path, source in sources.items()}
    tracer = LineTracer(package, allowed)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv, str(TESTS)])
    finally:
        sys.settrace(None)
    module = sys.modules.get("tricliq")
    if module is None or Path(module.__file__).resolve().parent != package:
        print(f"the tests did not import tricliq from {package}")
        return 1
    missing = []
    for path, source in sources.items():
        text = source.splitlines()
        lines = executable_lines(compile(source, str(path), "exec"))
        for line in sorted(lines - allowed[path] - tracer.ran.get(path, set())):
            missing.append(f"{path}:{line}: {text[line - 1].strip()}")
    for line in missing:
        print(f"not run: {line}")
    print(f"{len(missing)} executable lines of {package} not run, "
          f"outside {len(ALLOWED)} allowed statement(s)")
    if status != 0:
        print(f"pytest exited {int(status)}")
    return 1 if status != 0 or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
