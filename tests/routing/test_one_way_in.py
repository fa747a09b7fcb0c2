"""Schemes move money through one way in: the session's send core.

Every scheme module under ``repro/core`` and ``repro/routing`` locks funds
only through ``send_compiled``, ``send_on_path``, ``send_atomic`` or the
transport the scheme builds (``runtime.transport``'s
``send_unit_hop_by_hop``, ``launch`` or ``inject``).  None of them locks,
settles or refunds on the network's path facade, the path table or the
store itself, and none calls the node-tuple ``send_unit`` the send core
replaced.  The check reads the source (no import), so a direct call fails
it even on a branch no test runs.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
SCHEME_MODULES = sorted(
    path
    for package in ("core", "routing")
    for path in (SRC / package).glob("*.py")
)

#: Lock, settle and refund entries below the send core, and the deleted
#: node-tuple send.
FORBIDDEN = {
    "lock_path",
    "settle_path",
    "refund_path",
    "lock_funds",
    "lock_path_funds",
    "try_lock",
    "send_unit",
}


def forbidden_calls(source: str):
    """``(line, name)`` of every call to a :data:`FORBIDDEN` name, as a
    plain function or as an attribute of anything."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in FORBIDDEN:
            found.append((node.lineno, name))
    return found


def test_the_scan_covers_the_scheme_packages():
    names = {path.stem for path in SCHEME_MODULES}
    assert {"waterfilling", "amp", "lp_routing", "lnd", "max_flow"} <= names


@pytest.mark.parametrize(
    "module", SCHEME_MODULES, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_scheme_module_moves_money_only_through_the_send_core(module):
    assert forbidden_calls(module.read_text()) == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("runtime.send_unit(payment, path, 1.0)", "send_unit"),
        ("runtime.network.lock_path(path, 1.0)", "lock_path"),
        ("table.lock_funds(cpath, amounts)", "lock_funds"),
        ("store.try_lock(d, 1.0)", "try_lock"),
        ("refund_path(path, lock)", "refund_path"),
    ],
)
def test_the_scan_flags_a_direct_call(source, name):
    assert forbidden_calls(source) == [(1, name)]


def test_the_scan_passes_the_send_core_entries():
    source = (
        "runtime.send_compiled(payment, cpath, 1.0)\n"
        "runtime.send_on_path(payment, cpath)\n"
        "runtime.send_atomic(payment, shares)\n"
        "runtime.transport.send_unit_hop_by_hop(payment, cpath, 1.0)\n"
        "runtime.transport.launch(payment, cpath, 1.0)\n"
        "runtime.transport.inject(payment, 1.0)\n"
        "lock = runtime.send_unit\n"
    )
    assert forbidden_calls(source) == []
