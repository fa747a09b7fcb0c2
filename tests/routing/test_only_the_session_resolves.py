"""Units resolve in one place: the session.

Whether a transaction unit settles or is withheld (§4.1), the store write
that follows, the payment's accounting, the collector hooks and the
pending order's re-seat all live in ``SimulationSession._resolve_unit``
and the batch flush beside it.  A transport hands its delivered units
there; nothing else calls a resolution hook or reaches into the session's
pending order.  The collector classes under ``repro/metrics`` may chain
the hooks they override (``IncentiveCollector`` calls
``super().on_unit_settled``).  The check reads the source (no import),
so a stray call fails it even on a branch no test runs.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
SESSION = SRC / "engine" / "session.py"
METRICS = SRC / "metrics"
MODULES = sorted(path for path in SRC.rglob("*.py") if path != SESSION)

#: The per-unit resolution hooks of the collector and the payment.
RESOLUTION_HOOKS = {
    "on_unit_settled",
    "on_unit_cancelled",
    "on_payment_completed",
    "register_settled",
}


def resolution_reach_ins(source: str, collectors_exempt: bool = False):
    """``(line, name)`` of every call to a :data:`RESOLUTION_HOOKS` name
    and every ``._pending`` attribute access; with ``collectors_exempt``,
    calls inside a class whose name ends in ``Collector`` pass."""
    tree = ast.parse(source)
    exempt = set()
    if collectors_exempt:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Collector"):
                exempt.update(id(inner) for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_pending":
            found.append((node.lineno, "_pending"))
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in RESOLUTION_HOOKS:
            found.append((node.lineno, name))
    return sorted(found)


def test_the_scan_covers_the_engine_and_the_schemes():
    names = {path.relative_to(SRC).as_posix() for path in MODULES}
    assert {
        "engine/transport.py",
        "engine/dispatch.py",
        "core/queueing.py",
        "routing/backpressure.py",
        "metrics/incentives.py",
    } <= names
    assert "engine/session.py" not in names


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda path: path.relative_to(SRC).as_posix()
)
def test_no_module_but_the_session_resolves_a_unit(module):
    source = module.read_text(encoding="utf-8")
    assert resolution_reach_ins(source, collectors_exempt=METRICS in module.parents) == []


def test_the_session_is_where_units_resolve():
    names = {name for _, name in resolution_reach_ins(SESSION.read_text(encoding="utf-8"))}
    assert names == RESOLUTION_HOOKS | {"_pending"}


@pytest.mark.parametrize(
    "source, name",
    [
        ("self.collector.on_unit_settled(record, now)", "on_unit_settled"),
        ("self.collector.on_unit_cancelled(record, now)", "on_unit_cancelled"),
        ("collector.on_payment_completed(payment, now)", "on_payment_completed"),
        ("payment.register_settled(unit.amount, now)", "register_settled"),
        ("self.session._pending.touch(payment)", "_pending"),
        ("pending = session._pending", "_pending"),
    ],
)
def test_the_scan_flags_a_reach_in(source, name):
    assert resolution_reach_ins(source) == [(1, name)]


def test_only_collector_classes_may_chain_a_hook():
    source = (
        "class IncentiveCollector(MetricsCollector):\n"
        "    def on_unit_settled(self, unit, now):\n"
        "        super().on_unit_settled(unit, now)\n"
        "class RouterEconomics:\n"
        "    def book(self, collector, unit, now):\n"
        "        collector.on_unit_settled(unit, now)\n"
    )
    assert resolution_reach_ins(source, collectors_exempt=True) == [
        (6, "on_unit_settled")
    ]
    assert len(resolution_reach_ins(source)) == 2


def test_the_scan_passes_the_transport_hand_off():
    source = (
        "settled = self.session._resolve_unit(record)\n"
        "payment.register_cancelled(unit.amount)\n"
        "self.collector.on_unit_queued(depth)\n"
        "def on_unit_settled(self, unit, now): pass\n"
    )
    assert resolution_reach_ins(source) == []
