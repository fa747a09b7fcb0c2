"""Path operations have one representation: the compiled path.

Every probe, lock and settle in ``src/repro`` runs on a
:class:`~repro.engine.pathtable.CompiledPath` or a pair's probe handle.
The node-tuple facade (``PaymentNetwork.lock_path`` and friends, the
``PathLock`` record) is gone, and no module may call the three entries
that stay only because the end-to-end benchmark's span list wraps them
by name (``PathTable.lock_path``, ``PathTable.refresh_probes``,
``ChannelStateStore.lock_many``).  Their definitions pass; a call, or any
mention of ``PathLock``, fails.  The check reads the source, so it also
covers branches no test runs.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.engine.pathtable import PathTable
from repro.network.network import PaymentNetwork

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))

#: Node-tuple path entries and the benchmark-only stubs: never called.
FORBIDDEN_CALLS = {
    "lock_path",
    "settle_path",
    "refund_path",
    "refresh_probes",
    "lock_many",
}

#: Names the deleted facade defined.
DELETED_NETWORK_NAMES = (
    "bottleneck",
    "bottleneck_many",
    "hop_amounts",
    "lock_path",
    "settle_path",
    "refund_path",
    "_check_hops",
)


def node_tuple_uses(source: str):
    """``(line, name)`` of every call to a :data:`FORBIDDEN_CALLS` name
    and every mention of ``PathLock`` (a name, an attribute or an
    import)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FORBIDDEN_CALLS:
                found.append((node.lineno, name))
        elif isinstance(node, ast.Name) and node.id == "PathLock":
            found.append((node.lineno, "PathLock"))
        elif isinstance(node, ast.Attribute) and node.attr == "PathLock":
            found.append((node.lineno, "PathLock"))
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "PathLock" for alias in node.names):
                found.append((node.lineno, "PathLock"))
    return sorted(found)


def test_the_scan_covers_the_whole_package():
    names = {path.relative_to(SRC).as_posix() for path in MODULES}
    assert {"engine/pathtable.py", "network/network.py", "core/admission.py",
            "routing/landmark.py"} <= names


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda path: path.relative_to(SRC).as_posix()
)
def test_module_runs_path_operations_on_compiled_paths(module):
    assert node_tuple_uses(module.read_text()) == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("runtime.network.lock_path(path, 1.0)", "lock_path"),
        ("network.settle_path(path, lock)", "settle_path"),
        ("refund_path(path, lock)", "refund_path"),
        ("table.refresh_probes([handle])", "refresh_probes"),
        ("store.lock_many(rows, amounts)", "lock_many"),
        ("from repro.engine.pathtable import PathLock", "PathLock"),
        ("isinstance(lock, pathtable.PathLock)", "PathLock"),
    ],
)
def test_the_scan_flags_a_node_tuple_use(source, name):
    assert [found for _, found in node_tuple_uses(source)] == [name]


def test_the_scan_passes_definitions_and_compiled_operations():
    source = (
        "class PathTable:\n"
        "    def lock_path(self, path, amounts):\n"
        "        return self.lock_funds(self.compile(path), amounts)\n"
        "    def refresh_probes(self, probes):\n"
        "        pass\n"
        "table.bottleneck_many(table.probe_handle(paths))\n"
        "store.settle_path_funds(cpath.dir_list, actuals)\n"
        "lock = table.lock_path\n"
    )
    assert node_tuple_uses(source) == []


@pytest.mark.parametrize("name", DELETED_NETWORK_NAMES)
def test_the_network_has_no_node_tuple_path_operation(name):
    assert not hasattr(PaymentNetwork, name)


@pytest.mark.parametrize("name", ["settle", "refund", "_resolve", "_probe_for"])
def test_the_path_table_has_no_node_tuple_resolution(name):
    assert not hasattr(PathTable, name)


def test_the_engine_exports_no_path_lock():
    import repro.engine

    assert not hasattr(repro.engine, "PathLock")
    assert "PathLock" not in repro.engine.__all__
