"""Tests for SimulationSession."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.payments import TransactionUnit, UnitState
from repro.core.queueing import SpiderQueueingScheme
from repro.engine import session as session_module
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.engine.transport import HopUnit
from repro.errors import PaymentError
from repro.experiments.config import ExperimentConfig
from repro.metrics.collectors import MetricsCollector
from repro.routing.registry import make_scheme
from repro.topology import line_topology
from repro.workload.generator import TransactionRecord


def _line_setup(scheme_name="shortest-path", n_records=20):
    network = line_topology(4).build_network(default_capacity=100.0)
    records = [
        TransactionRecord(
            txn_id=i, source=0, dest=3, amount=2.0, arrival_time=0.05 * (i + 1)
        )
        for i in range(n_records)
    ]
    scheme = make_scheme(scheme_name)
    return network, records, scheme


def _config(**overrides):
    base = dict(
        scheme="spider-waterfilling",
        topology="line-5",
        capacity=200.0,
        num_transactions=250,
        arrival_rate=50.0,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestNativeExecution:
    def test_runs_trace_and_settles(self):
        network, records, scheme = _line_setup()
        session = SimulationSession(network, records, scheme)
        metrics = session.run()
        assert metrics.attempted == 20
        assert metrics.completed == 20
        assert metrics.success_ratio == pytest.approx(1.0)
        assert network.total_inflight() == pytest.approx(0.0)

    def test_session_runs_exactly_once(self):
        network, records, scheme = _line_setup()
        session = SimulationSession(network, records, scheme)
        session.run()
        with pytest.raises(RuntimeError):
            session.run()

    def test_scheme_surface(self):
        """The attribute surface schemes read off their ``runtime`` argument."""
        network, records, scheme = _line_setup()
        config = RuntimeConfig(end_time=30.0)
        session = SimulationSession(network, records, scheme, config)
        assert session.end_time == pytest.approx(30.0)
        assert session.now == 0.0
        assert session.records
        assert session.network is network
        session.run()
        assert session.now == pytest.approx(30.0)
        assert session.events_processed > 0

    def test_atomic_scheme_single_attempt(self):
        config = _config(scheme="speedymurmurs", num_transactions=100)
        session = SimulationSession.from_config(config)
        metrics = session.run()
        assert metrics.attempted == 100
        assert metrics.completed + metrics.failed == 100
        assert 0 < metrics.failed < 100  # both outcomes are exercised
        assert all(p.attempts == 1 for p in session.payments.values())


class TestNativeTransports:
    def test_hop_by_hop_scheme_runs_natively(self):
        from repro.engine.transport import HopByHopTransport

        config = _config(scheme="spider-queueing", num_transactions=100)
        session = SimulationSession.from_config(config)
        metrics = session.run()
        assert isinstance(session.transport, HopByHopTransport)
        assert metrics.attempted == 100

    def test_backpressure_scheme_runs_natively(self):
        from repro.engine.transport import BackpressureTransport

        config = _config(scheme="celer", num_transactions=100)
        session = SimulationSession.from_config(config)
        metrics = session.run()
        assert isinstance(session.transport, BackpressureTransport)
        assert metrics.attempted == 100


class _SettledUnits(MetricsCollector):
    """Keeps every unit the session settled, in settlement order."""

    def __init__(self):
        super().__init__()
        self.units = []

    def on_unit_settled(self, unit, now):
        super().on_unit_settled(unit, now)
        self.units.append(unit)


#: Every per-channel array of the store.
_STORE_ARRAYS = (
    "balance", "inflight", "sent", "settled_flow", "queue_depth",
    "capacity", "total_deposited", "num_settled", "num_refunded", "frozen",
)


def _settled_run(scheme):
    """Run ``scheme`` over the line trace; returns the session and the
    units it settled."""
    network, records, _ = _line_setup()
    collector = _SettledUnits()
    session = SimulationSession(
        network, records, scheme, RuntimeConfig(check_invariants=True),
        collector=collector,
    )
    session.run()
    assert collector.units
    return session, collector.units


class TestOneUnitRecord:
    """A unit is one record from its lock to its resolution, in the send
    core and in the hop transport alike."""

    def test_hop_transport_hands_one_object_to_collector_and_scheme(self):
        class RecordingQueueing(SpiderQueueingScheme):
            def __init__(self):
                super().__init__()
                self.resolved = []

            def on_unit_resolved(self, unit, outcome, now):
                self.resolved.append((unit, outcome))

        scheme = RecordingQueueing()
        _, settled = _settled_run(scheme)
        acked = [unit for unit, outcome in scheme.resolved if outcome == "settled"]
        assert len(acked) == len(settled) == 20
        assert all(isinstance(unit, HopUnit) for unit in settled)
        assert all(a is b for a, b in zip(acked, settled))

    @pytest.mark.parametrize(
        "scheme_name, unit_type",
        [("shortest-path", TransactionUnit), ("spider-queueing", HopUnit)],
    )
    def test_a_second_resolve_raises_and_writes_nothing(self, scheme_name, unit_type):
        session, settled = _settled_run(make_scheme(scheme_name))
        unit = settled[0]
        assert type(unit) is unit_type
        assert unit.state is UnitState.SETTLED
        store = session.network.state_store
        before = {name: getattr(store, name).copy() for name in _STORE_ARRAYS}
        version = store.version
        payment = (unit.payment.delivered, unit.payment.inflight)
        units_settled = session.collector.units_settled
        with pytest.raises(PaymentError, match="already resolved"):
            session._resolve_unit(unit)
        for name in _STORE_ARRAYS:
            assert np.array_equal(getattr(store, name), before[name]), name
        assert store.version == version
        assert (unit.payment.delivered, unit.payment.inflight) == payment
        assert session.collector.units_settled == units_settled
        assert unit.state is UnitState.SETTLED


class TestEmptyTrace:
    def test_empty_trace_without_end_time_short_circuits(self):
        """Regression: an empty trace with end_time=None must not arm the
        poll timer or call scheme.prepare against a zero-length horizon."""
        prepared = []

        scheme = make_scheme("shortest-path")
        scheme.prepare = lambda runtime: prepared.append(runtime)
        network = line_topology(4).build_network(default_capacity=100.0)
        session = SimulationSession(network, [], scheme)
        metrics = session.run()
        assert metrics.attempted == 0
        assert metrics.duration == 0.0
        assert prepared == []
        assert session._poll_timer is None
        assert session.events_processed == 0
        with pytest.raises(RuntimeError):
            session.run()  # still runs exactly once

    def test_empty_trace_with_explicit_end_time_still_runs(self):
        """An explicit horizon keeps the normal machinery (polls fire)."""
        network = line_topology(4).build_network(default_capacity=100.0)
        scheme = make_scheme("shortest-path")
        session = SimulationSession(network, [], scheme, RuntimeConfig(end_time=3.0))
        metrics = session.run()
        assert metrics.attempted == 0
        assert metrics.duration == 3.0
        assert session.events_processed > 0  # the poll timer ticked


class TestCheckInvariants:
    @pytest.mark.parametrize(
        "scheme",
        [
            "spider-waterfilling",
            "shortest-path",
            "spider-lp",
            "spider-primal-dual",
            "speedymurmurs",  # atomic: send_atomic's units
        ],
    )
    def test_checked_run_resolves_in_batches_and_matches_plain_run(
        self, scheme, monkeypatch
    ):
        """``check_invariants`` checks the path users run: resolution
        flushes still go through ``apply_resolution_batch`` (each followed
        by one conservation check), and the metrics bytes are the plain
        run's."""
        from repro.engine.store import ChannelStateStore
        from repro.metrics.report import metrics_to_json
        from repro.network.network import PaymentNetwork

        plain = metrics_to_json(SimulationSession.from_config(_config(scheme=scheme)).run())
        calls = {"batches": 0, "checks": 0}
        batch = ChannelStateStore.apply_resolution_batch
        check = PaymentNetwork.check_invariants

        def counted_batch(store, *args):
            calls["batches"] += 1
            return batch(store, *args)

        def counted_check(network):
            calls["checks"] += 1
            return check(network)

        monkeypatch.setattr(ChannelStateStore, "apply_resolution_batch", counted_batch)
        monkeypatch.setattr(PaymentNetwork, "check_invariants", counted_check)
        checked = SimulationSession.from_config(
            _config(scheme=scheme, check_invariants=True)
        ).run()
        assert metrics_to_json(checked) == plain
        assert calls["batches"] > 0
        assert calls["checks"] >= calls["batches"]


class TestSchemeReuse:
    """A scheme instance carries no session's state into the next: the
    compiled path handles its ``attempt`` reads belong to the session's
    plan, bound to that network's path table."""

    @pytest.mark.parametrize("fee_rate", [0.0, 0.001])
    def test_one_instance_through_two_networks_matches_fresh_instances(
        self, fee_rate
    ):
        from repro.core.waterfilling import WaterfillingScheme
        from repro.metrics import metrics_to_json

        configs = [
            _config(topology="line-5", fee_rate=fee_rate),
            _config(topology="grid-3x3", capacity=60.0, seed=9, fee_rate=fee_rate),
        ]

        def run(config, scheme):
            network, records, _ = config.build_simulation_inputs()
            session = SimulationSession(
                network, records, scheme, config.build_runtime_config()
            )
            return metrics_to_json(session.run())

        shared = WaterfillingScheme()
        reused = [run(config, shared) for config in configs]
        fresh = [run(config, WaterfillingScheme()) for config in configs]
        assert reused == fresh
        assert reused[0] != reused[1]

    def test_window_instance_through_two_networks_matches_the_reference(self):
        """One window scheme run through ``line-5`` and then ``grid-3x3``
        decides as a reference-attempt instance run through the same two
        sessions: its per-pair window cache holds no compiled path of the
        first network into the second.  (Window states are keyed by hop
        direction ids and carry over on purpose, so both arms reuse one
        instance.)"""
        from repro.core.window_control import WindowedSpiderScheme
        from repro.metrics import metrics_to_json
        from tests.reference.schemes import use_reference_attempt

        configs = [
            _config(scheme="spider-window", topology="line-5"),
            _config(scheme="spider-window", topology="grid-3x3", capacity=60.0, seed=9),
        ]

        def run(config, scheme):
            network, records, _ = config.build_simulation_inputs()
            session = SimulationSession(
                network, records, scheme, config.build_runtime_config()
            )
            return metrics_to_json(session.run())

        shared = WindowedSpiderScheme()
        reference = use_reference_attempt(WindowedSpiderScheme())
        reused = [run(config, shared) for config in configs]
        assert reused == [run(config, reference) for config in configs]
        assert reused[0] != reused[1]
        assert shared.window_snapshot() == reference.window_snapshot()


class TestPrimalDualOnSession:
    def test_recurring_control_loop_runs_on_tick_engine(self):
        """spider-primal-dual drives a periodic timer off session.sim."""
        config = _config(scheme="spider-primal-dual", num_transactions=120)
        metrics = SimulationSession.from_config(config).run()
        assert metrics.attempted == 120
        assert 0.0 <= metrics.success_ratio <= 1.0


class TestCollectorScope:
    """``from_config`` and ``prepare()`` build with the cyclic collector
    paused, hand it back as they found it, and force at most one full
    collection — only after a build that allocated enough to need it."""

    @staticmethod
    def _state():
        return gc.isenabled(), gc.get_threshold()

    @pytest.fixture
    def collections(self, monkeypatch):
        """Arguments of every explicit ``gc.collect()`` while the test runs."""
        calls = []
        monkeypatch.setattr(gc, "collect", lambda *args: calls.append(args) or 0)
        return calls

    def test_state_restored_and_small_session_never_collects(self, collections):
        before = self._state()
        session = SimulationSession.from_config(_config())
        assert self._state() == before
        seen = []
        prepare = session.scheme.prepare
        session.scheme.prepare = lambda runtime: (
            seen.append(gc.isenabled()),
            prepare(runtime),
        )
        session.prepare()
        assert seen == [False]  # the build itself ran with the collector off
        assert self._state() == before
        assert collections == []  # far below _BULK_BUILD_OBJECTS

    def test_one_full_collection_after_a_large_build(self, collections, monkeypatch):
        monkeypatch.setattr(session_module, "_BULK_BUILD_OBJECTS", -1)
        session = SimulationSession.from_config(_config())
        assert collections == [()]
        session.prepare()
        assert collections == [(), ()]
        session.prepare()  # already prepared: the scope is not entered again
        assert collections == [(), ()]

    def test_state_restored_when_scheme_prepare_raises(self, collections):
        before = self._state()
        session = SimulationSession.from_config(_config())

        def explode(runtime):
            raise RuntimeError("scheme.prepare failed")

        session.scheme.prepare = explode
        with pytest.raises(RuntimeError, match="scheme.prepare failed"):
            session.prepare()
        assert self._state() == before

    def test_collector_left_off_for_a_caller_who_had_it_off(
        self, collections, monkeypatch
    ):
        monkeypatch.setattr(session_module, "_BULK_BUILD_OBJECTS", -1)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = self._state()
            session = SimulationSession.from_config(_config())
            session.prepare()
            assert self._state() == before == (False, gc.get_threshold())
            assert collections == []  # and none forced on them either
        finally:
            if was_enabled:
                gc.enable()
