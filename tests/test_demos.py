"""The demos' stdout, pinned byte for byte.

Each script under ``demos/`` runs in a process of its own, the way a reader
runs it, with the directory that holds the ``tricliq`` these tests import on
``PYTHONPATH``: ``src`` when the tests run from the checkout, the installed
copy when they run against an install.  The digest is the sha256 of its
stdout.  A mismatch prints the output the demo gave.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tricliq

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_graph_families.py": "20dbe0a0d08aa07c8c9c4fabe791509f1932c22ad91a72168909dadcc63ad9e5",
    "02_triangle_weights.py": "416386e72f8868b18c25e1562976cfbf58e6117a647a179d1374048604113957",
    "03_pruning_trace.py": "db01733ba72604593661784659415c596216a09b885a77b71c1b6ea4f813f4ef",
    "04_clique_extraction.py": "33c17177a86b2ee87173b72e5ef6b139eb40ca146b292bd58fbf253f258bee90",
    "05_heuristic_vs_oracles.py": "133987d5ee8d1cbe4fd9f1e27cc0d9e49b04892e06c09f7467075aa4fb23450c",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(Path(tricliq.__file__).parent.parent))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, check=True, env=env, cwd=ROOT)
    digest = hashlib.sha256(run.stdout).hexdigest()
    assert digest == DIGESTS[name], \
        f"demos/{name} printed:\n{run.stdout.decode()}"
