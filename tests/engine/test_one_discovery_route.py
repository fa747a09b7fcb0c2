"""Paths are discovered one way: through ``PathService``.

Only ``engine/pathservice.py`` builds the discovery objects — the CSR
graph, the disjoint-path provider, the memoising cache and the landmark
provider — save that ``network/network.py`` builds its own channel graph,
the one ``CsrGraph`` every layer reads.  Every other module asks the
network (``network.graph()``) or the network's service
(``network.path_service.view(k)``, ``landmark_provider(n)``), so pair sets
are memoised and persisted in one place.  The check reads the source (no
import), so a direct construction fails it even on a branch no test runs.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = SRC / "engine" / "pathservice.py"
MODULES = sorted(path for path in SRC.rglob("*.py") if path != OWNER)

#: Dotted-name suffixes of the calls only the owner may make.
FORBIDDEN = (
    ("CsrDisjointProvider",),
    ("PersistentCache",),
    ("LandmarkProvider",),
    ("CsrGraph", "from_adjacency"),
    ("CsrGraph",),
)

#: The other modules (relative to ``src/repro``) allowed a forbidden call.
ALLOWED = {("CsrGraph",): {"network/network.py"}}


def _dotted(func: ast.expr) -> tuple:
    """``a.b.c`` as ``("a", "b", "c")``; the trailing names for anything
    that is not a plain dotted name."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    return tuple(reversed(parts))


def forbidden_calls(source: str, module: str = ""):
    """``(line, name)`` of every call in ``module``'s ``source`` that
    builds a discovery object."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        for suffix in FORBIDDEN:
            if name[-len(suffix) :] == suffix and module not in ALLOWED.get(suffix, ()):
                found.append((node.lineno, ".".join(suffix)))
    return found


def test_the_scan_covers_every_package():
    packages = {path.relative_to(SRC).parts[0] for path in MODULES}
    assert {"core", "routing", "engine", "fluid", "experiments", "cli.py"} <= packages
    assert OWNER not in MODULES


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_module_discovers_only_through_the_service(module):
    assert forbidden_calls(module.read_text(), module.relative_to(SRC).as_posix()) == []


def test_the_scan_flags_a_direct_construction():
    source = (
        "from repro.engine import pathservice\n"
        "graph = pathservice.CsrGraph.from_adjacency(adjacency)\n"
        "cache = PersistentCache(CsrDisjointProvider(graph, 4), key)\n"
        "legs = pathservice.LandmarkProvider(service, [0])\n"
        "second = CsrGraph(nodes, ranks)\n"
    )
    assert sorted(forbidden_calls(source)) == [
        (2, "CsrGraph.from_adjacency"),
        (3, "CsrDisjointProvider"),
        (3, "PersistentCache"),
        (4, "LandmarkProvider"),
        (5, "CsrGraph"),
    ]


def test_the_scan_passes_the_service_entries():
    source = (
        "view = network.path_service.view(k=4)\n"
        "service = PathService.from_adjacency(adjacency)\n"
        "legs = service.landmark_provider(3)\n"
        "PersistentCache.clear_shared()\n"
        "graph = network.graph()\n"
    )
    assert forbidden_calls(source) == []
    own = "graph = self._graph = CsrGraph(nodes, ranks)\n"
    assert forbidden_calls(own, "network/network.py") == []
