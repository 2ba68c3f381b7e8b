"""``tools/line_coverage.py``'s ``ALLOWED`` names statements that exist, in
the sources these tests import, so that a stale entry fails here and not
only in the line-coverage run."""

import importlib.util
from pathlib import Path

import pytest

import tricliq

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_coverage.py"
spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
line_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_coverage)

PACKAGE = Path(tricliq.__file__).resolve().parent


@pytest.mark.parametrize("name", sorted({name for name, _ in line_coverage.ALLOWED}))
def test_each_allowed_entry_names_one_statement(name):
    # allowed_lines exits unless each entry of file ``name`` names exactly
    # one statement of it
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert line_coverage.allowed_lines(name, source)
