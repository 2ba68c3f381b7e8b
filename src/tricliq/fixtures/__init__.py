"""Bundled reference graphs with their published expected values.

Each fixture is an edge-list file plus a sidecar JSON of expected values;
the JSON's ``provenance`` block says which values are transcribed from the
reference tables and which were re-derived by brute force.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from ..graph import Graph, GraphError
from ..io import parse_edge_list

FIXTURE_NAMES = ("g1", "g2", "g3", "g4", "turan13", "moon_moser_12")


class UnknownFixtureError(GraphError):
    pass


class FixtureMismatchError(GraphError):
    """A fixture's edge file disagrees with the counts in its sidecar."""


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    expected: dict


def _read(name: str, suffix: str) -> str:
    ref = resources.files(__name__).joinpath(f"{name}{suffix}")
    return ref.read_text(encoding="utf-8")


def load_fixture(name: str) -> Fixture:
    """Load one of the bundled graphs by name (see FIXTURE_NAMES)."""
    if name not in FIXTURE_NAMES:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    graph = parse_edge_list(_read(name, ".edges"))
    expected = json.loads(_read(name, ".expected.json"))
    if (graph.n, graph.m) != (expected["n"], expected["m"]):
        raise FixtureMismatchError(
            f"fixture {name!r}: edge file has n={graph.n}, m={graph.m} but "
            f"its sidecar expects n={expected['n']}, m={expected['m']}")
    return Fixture(name=name, graph=graph, expected=expected)
