"""The engine does not import the scheme layer above it.

Every module under ``repro/engine`` imports from ``repro.core`` only the
records and orderings the engine itself moves (``payments`` and
``scheduling``) and nothing from ``repro.routing``; a scheme reaches the
engine by building its transport, never the other way round.  Imports
under ``if TYPE_CHECKING:`` are annotations only and are exempt.  The
check reads the source (no import), so a function-level import fails it
even on a branch no test runs.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
ENGINE_MODULES = sorted((SRC / "engine").glob("*.py"))

#: The ``repro.core`` modules the engine may import at run time.
CORE_ALLOWED = {"payments", "scheduling"}


def _is_type_checking(test: ast.expr) -> bool:
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
    return name == "TYPE_CHECKING"


def _imported(node: ast.AST):
    """The dotted targets one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _forbidden(target: str) -> bool:
    parts = target.split(".")
    if parts[:2] == ["repro", "routing"]:
        return True
    return parts[:2] == ["repro", "core"] and (
        len(parts) < 3 or parts[2] not in CORE_ALLOWED
    )


def layer_violations(source: str):
    """``(line, target)`` of every run-time import of a scheme module."""
    tree = ast.parse(source)
    typing_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for stmt in node.body:
                typing_only.update(id(sub) for sub in ast.walk(stmt))
    return [
        (node.lineno, target)
        for node in ast.walk(tree)
        if id(node) not in typing_only
        for target in _imported(node)
        if _forbidden(target)
    ]


def test_the_scan_covers_the_engine():
    names = {path.stem for path in ENGINE_MODULES}
    assert {"transport", "session", "dispatch", "signals"} <= names


@pytest.mark.parametrize("module", ENGINE_MODULES, ids=lambda path: path.name)
def test_engine_module_imports_no_scheme_module(module):
    assert layer_violations(module.read_text()) == []


@pytest.mark.parametrize(
    "source, target",
    [
        ("from repro.core.queueing import HopUnit", "repro.core.queueing.HopUnit"),
        (
            "from repro.routing.backpressure import BackpressureUnit",
            "repro.routing.backpressure.BackpressureUnit",
        ),
        ("import repro.routing.base", "repro.routing.base"),
        ("from repro.core import window_control", "repro.core.window_control"),
        ("from repro import routing", "repro.routing"),
        (
            "def build():\n    from repro.routing.registry import make_scheme",
            "repro.routing.registry.make_scheme",
        ),
        (
            "if TYPE_CHECKING:\n    pass\nelse:\n    import repro.core.amp",
            "repro.core.amp",
        ),
    ],
)
def test_the_scan_flags_a_scheme_import(source, target):
    assert [found for _, found in layer_violations(source)] == [target]


def test_the_scan_passes_the_allowed_imports():
    source = (
        "from repro.core.payments import Payment, UnitState\n"
        "from repro.core.scheduling import PendingHeap\n"
        "from repro.network.network import PaymentNetwork\n"
        "from repro.fluid.paths import bfs_distances\n"
        "from . import events\n"
        "if TYPE_CHECKING:\n"
        "    from repro.routing.base import RoutingScheme\n"
        "if typing.TYPE_CHECKING:\n"
        "    from repro.core.queueing import SpiderQueueingScheme\n"
    )
    assert layer_violations(source) == []
