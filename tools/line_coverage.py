"""Line coverage of ``src/tricliq`` by the tier-1 tests, with the standard
library alone.

Run it from the repository root, with the package importable from ``src``:

    PYTHONPATH=src python tools/line_coverage.py -W error

Its arguments are pytest options.  pytest runs ``tests/`` in this process
under a ``sys.settrace`` tracer that records each line run in a file of the
package.  The script exits 1 if the tests fail, or if an executable line
(one the compiler gave an instruction) never ran outside the statements
named in ``ALLOWED``.  The tracer is armed again before each test: an
exception raised inside it, such as a ``RecursionError`` at the limit,
switches it off for the rest of that test.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tricliq"

# (file under src/tricliq, the first line of a statement, stripped): why no
# test runs it.  The entry allows every line of that statement (or except
# clause), and must name exactly one
ALLOWED = {
    ("pruning.py", 'raise RuntimeError("pruning removed nothing; invariant violated")'):
        "the peel's stall guard: every iteration removes the triangles of its "
        "minimum edges, so it cannot stall; the CLI's exit 3 is tested with a "
        "stand-in that raises the same message",
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m tricliq.cli`; the tests call main()",
    ("cli.py", "except RecursionError:"):
        "test_exit_code_recursion_too_deep runs this arm, but the "
        "RecursionError that leads here has already switched the tracer off",
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

    def __init__(self, allowed: dict[Path, set[int]]) -> None:
        self.allowed = allowed
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
        if PACKAGE not in path.parents:
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

    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self)


def main(argv: list[str]) -> int:
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    allowed = {path: allowed_lines(str(path.relative_to(PACKAGE)), source)
               for path, source in sources.items()}
    tracer = LineTracer(allowed)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv,
                              str(ROOT / "tests")], plugins=[tracer])
    finally:
        sys.settrace(None)
    module = sys.modules.get("tricliq")
    if module is None or Path(module.__file__).resolve().parent != PACKAGE:
        print(f"tricliq was not imported from {PACKAGE}; set PYTHONPATH=src")
        return 1
    missing = []
    for path, source in sources.items():
        text = source.splitlines()
        lines = executable_lines(compile(source, str(path), "exec"))
        for line in sorted(lines - allowed[path] - tracer.ran.get(path, set())):
            missing.append(f"src/tricliq/{path.relative_to(PACKAGE)}:{line}: "
                           f"{text[line - 1].strip()}")
    for line in missing:
        print(f"not run: {line}")
    print(f"{len(missing)} executable lines of src/tricliq not run, "
          f"outside {len(ALLOWED)} allowed statements")
    if status != 0:
        print(f"pytest exited {int(status)}")
    return 1 if status != 0 or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
