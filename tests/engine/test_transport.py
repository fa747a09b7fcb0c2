"""Tests for the native hop-by-hop transports (repro.engine.transport)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.session import RuntimeConfig
from repro.engine.session import SimulationSession
from repro.engine.transport import BackpressureTransport, HopByHopTransport, HopUnit
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import metrics_to_json
from repro.routing.base import RoutingScheme
from repro.routing.registry import make_scheme
from repro.topology.generators import line_topology
from repro.workload.generator import TransactionRecord
from tests.path_helpers import lock


class LaunchOnLine(RoutingScheme):
    """Minimal hop-by-hop scheme: launch the remaining value on the line,
    over a hop transport built with ``transport_kwargs``."""

    name = "test-hop-launch"
    atomic = False

    def __init__(self, **transport_kwargs):
        self.transport_kwargs = transport_kwargs

    def make_transport(self, session):
        return HopByHopTransport(session, **self.transport_kwargs)

    def attempt(self, payment, runtime):
        step = 1 if payment.dest >= payment.source else -1
        path = tuple(range(payment.source, payment.dest + step, step))
        cpath = runtime.network.path_table.compile(path)
        runtime.transport.send_unit_hop_by_hop(payment, cpath, payment.remaining)


def record(txn_id, t, source, dest, amount, deadline=None):
    return TransactionRecord(txn_id, t, source, dest, amount, deadline)


def make_session(records, capacity=100.0, nodes=4, scheme=None, end_time=30.0):
    network = line_topology(nodes).build_network(default_capacity=capacity)
    session = SimulationSession(
        network,
        records,
        scheme or LaunchOnLine(),
        RuntimeConfig(end_time=end_time, check_invariants=True),
    )
    return session


class TestHopByHopNative:
    def test_simple_payment_completes(self):
        session = make_session([record(0, 1.0, 0, 3, 10.0)])
        metrics = session.run()
        assert isinstance(session.transport, HopByHopTransport)
        assert metrics.completed == 1
        # Arrival after 2 more hops x 0.05s + settle 0.5s.
        assert session.payments[0].completed_at == pytest.approx(1.0 + 2 * 0.05 + 0.5)
        assert session.network.total_inflight() == pytest.approx(0.0)

    def test_queue_depth_arrays_track_router_queues(self):
        """The store's queue_depth is live state, not dead zeros: a starved
        direction shows its parked units mid-run and drains back to zero."""
        session = make_session([record(0, 1.0, 0, 3, 30.0)], end_time=3.0)
        network = session.network
        # Drain 1->2 before the run (held HTLC, never resolved).
        lock(network, (1, 2), 45.0)
        store = network.state_store
        d = network.direction_id(1, 2)
        cid, side = d >> 1, d & 1
        observed = {}

        def probe():
            observed["depth"] = int(store.queue_depth[cid, side])
            observed["total"] = store.total_queued()
            observed["max"] = store.max_queue_depth()

        # The unit parks at router 1 at ~1.05s; probe while it waits.
        session.sim.call_at(1.5, probe)
        metrics = session.run()
        assert observed["depth"] >= 1
        assert observed["total"] >= 1
        assert observed["max"] >= 1
        # End of run: every queue drained (timeout or finish), depth zero.
        assert store.total_queued() == 0
        assert metrics.max_queue_depth >= 1
        assert metrics.mean_queue_depth > 0.0

    def test_lazy_timeout_refunds_and_clears_depth(self):
        session = make_session(
            [record(0, 1.0, 0, 3, 40.0)],
            end_time=3.5,
            scheme=LaunchOnLine(queue_timeout=1.0),
        )
        network = session.network
        lock(network, (2, 3), 45.0)
        session.run()
        transport = session.transport
        assert transport.units_timed_out >= 1
        assert network.state_store.total_queued() == 0
        # Hops 0->1 and 1->2 were locked, then refunded on timeout.
        assert network.channel(0, 1).balance(0) == pytest.approx(50.0)
        assert network.channel(1, 2).balance(1) == pytest.approx(50.0)

    def test_timed_out_corpse_does_not_block_service(self):
        """A timed-out unit stays in the deque as a corpse; a later credit
        must skip it and service the live unit parked behind it."""
        session = make_session(
            [
                record(0, 1.0, 0, 3, 45.0),  # parks at router 1, times out
                record(1, 1.2, 0, 3, 4.0),  # parks behind it, stays live
                record(2, 1.1, 3, 0, 40.0),  # reverse credit before timeout
                record(3, 1.6, 3, 0, 10.0),  # reverse credit after timeout
            ],
            end_time=3.4,
            scheme=LaunchOnLine(queue_timeout=1.0),
        )
        lock(session.network, (1, 2), 50.0)  # drain 1->2 fully
        session.run()
        assert session.transport.units_timed_out >= 1
        assert session.payments[1].is_complete
        assert session.network.state_store.total_queued() == 0
        session.network.check_invariants()

    def test_finish_drain_does_not_relaunch_queued_units(self):
        """A refund cascading out of the end-of-run drain must not service
        other queues: the engine never fires the relaunched unit's advance
        events, so its HTLCs would stay locked forever."""
        from repro.network.network import PaymentNetwork

        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_channel(1, 2, 100.0)
        network.add_channel(2, 0, 100.0)

        paths = {0: (2, 0, 1), 1: (1, 2, 0)}

        class LaunchFixedPaths(LaunchOnLine):
            name = "test-fixed-paths"

            def attempt(self, payment, runtime):
                cpath = runtime.network.path_table.compile(
                    paths[payment.payment_id]
                )
                runtime.transport.send_unit_hop_by_hop(
                    payment, cpath, payment.remaining
                )

        lock(network, (0, 1), 50.0)  # direction (0,1) is dry
        session = SimulationSession(
            network,
            [
                record(0, 1.0, 2, 1, 50.0),  # locks 2->0, parks at (0,1)
                record(1, 1.1, 1, 0, 10.0),  # locks 1->2, parks at (2,0)
            ],
            LaunchFixedPaths(),
            RuntimeConfig(end_time=2.0, check_invariants=True),
        )
        session.run()
        # The drain aborts both units; P1's refund of 2->0 must not have
        # relaunched P2 out of the (2,0) queue. Only the held HTLC remains.
        assert session.network.total_inflight() == pytest.approx(50.0)
        assert session.payments[1].inflight == pytest.approx(0.0)
        assert session.network.state_store.total_queued() == 0

    def test_requeue_generation_guards_stale_timeouts(self):
        """A serviced-then-requeued unit must not be killed by the stale
        timeout scheduled for its first stint in the queue."""
        from repro.core.payments import UnitState

        session = make_session([], end_time=1.0)
        transport = HopByHopTransport(session)
        unit = HopUnit.__new__(HopUnit)
        unit.queued_at = 5.0
        unit.queue_seq = 2  # re-queued since the seq=1 timeout was armed
        unit.state = UnitState.INFLIGHT
        transport._timeout_unit(unit, 1)  # stale: must be a no-op
        assert unit.queued_at == 5.0
        assert transport.units_timed_out == 0

    def test_mean_queue_delay_reported(self):
        session = make_session(
            [
                record(0, 1.0, 0, 3, 30.0),  # queues at router 1 (5 available)
                record(1, 2.0, 3, 0, 40.0),  # reverse flow replenishes 1->2
            ],
        )
        lock(session.network, (1, 2), 45.0)
        metrics = session.run()
        assert session.transport.units_queued >= 1
        assert session.transport.mean_queue_delay > 0.0
        assert metrics.completed == 2

    def test_queue_delay_stats_match_the_delays_observed(self, monkeypatch):
        """The transport keeps a running total and count, not one float per
        serviced unit: both equal what the service batches handed to the
        control plane, and the mean is their left-to-right sum over the
        count."""
        from repro.engine.signals import ControlPlane

        observed = []
        observe = ControlPlane.observe_service

        def record_delays(self, cid, side, delays, units):
            observed.extend(delays)
            return observe(self, cid, side, delays, units)

        monkeypatch.setattr(ControlPlane, "observe_service", record_delays)
        config = ExperimentConfig(
            scheme="spider-window",
            topology="line-5",
            capacity=200.0,
            num_transactions=250,
            arrival_rate=50.0,
            seed=17,
        )
        session = SimulationSession.from_config(config)
        session.run()
        transport = session.transport
        assert len(observed) > 1
        assert transport.queue_delay_count == len(observed)
        total = 0.0
        for delay in observed:
            total += delay
        assert transport.queue_delay_total == total
        assert transport.mean_queue_delay == total / len(observed)
        assert transport.mean_queue_delay > 0.0

    def test_invalid_transport_parameters_rejected(self):
        session = make_session([record(0, 1.0, 0, 3, 1.0)])
        with pytest.raises(ValueError):
            HopByHopTransport(session, hop_delay=-1.0)
        with pytest.raises(ValueError):
            HopByHopTransport(session, queue_timeout=0.0)
        with pytest.raises(ValueError):
            HopByHopTransport(session, mark_threshold=-0.5)

    def test_units_queued_at_time_zero_count_their_delay(self):
        """A unit parked at t = 0 reads its true queueing delay.  A 3-unit
        0→2 payment queues behind a 5-unit 1→2 payment whose key is
        withheld at 0.5 s (past its deadline), so it waits 0.5 s — beyond
        the 0.3 s threshold — and is marked, exactly as in the same trace
        shifted to 1 s."""
        observed = {}
        for start in (0.0, 1.0):
            network = line_topology(3).build_network(default_capacity=10.0)
            session = SimulationSession(
                network,
                [
                    record(0, start, 1, 2, 5.0, deadline=start + 0.4),
                    record(1, start, 0, 2, 3.0),
                ],
                LaunchOnLine(hop_delay=0.0, mark_threshold=0.3),
                RuntimeConfig(end_time=start + 5.0, check_invariants=True),
            )
            session.run()
            transport = session.transport
            observed[start] = (transport.queue_delay_total, transport.units_marked)
        assert observed[0.0] == observed[1.0] == (pytest.approx(0.5), 1)


@pytest.mark.parametrize(
    "amount, offer, locked",
    [
        (30.0, 10.0, 10.0),  # funded: the offer locks as is
        (30.0, 100.0, 30.0),  # clamped to what the payment has left
        (80.0, 50.0, 50.0),  # exactly what the first hop holds
        (80.0, 60.0, None),  # more than the first hop holds: nothing moves
        (30.0, 1e-9, None),  # dust: vetoed before the store is touched
    ],
    ids=["funded", "clamped", "whole-first-hop", "short-first-hop", "dust"],
)
def test_launch_locks_the_first_hop_and_schedules_nothing(amount, offer, locked):
    """``launch`` is ``send_unit_hop_by_hop`` on a compiled path minus the
    scheduling: the unit with its first hop locked (the offer clamped to
    the payment's remainder and the MTU), or ``None`` with nothing moved.
    Each direction of the line holds 50."""
    from repro.core.payments import Payment

    session = make_session([])
    session.prepare()
    store = session.network.state_store
    payment = Payment(payment_id=7, source=0, dest=3, amount=amount, arrival_time=0.0)
    cpath = session.network.path_table.compile((0, 1, 2, 3))
    d = cpath.dir_list[0]
    before = store.balance_flat.item(d)
    assert before == 50.0
    queued = len(session.sim.queue.heap)
    unit = session.transport.launch(payment, cpath, offer)
    assert len(session.sim.queue.heap) == queued
    if locked is None:
        assert unit is None
        assert payment.inflight == 0.0
        assert store.balance_flat.item(d) == before
        return
    assert unit.cpath is cpath and unit.payment is payment
    assert unit.amount == unit.locked[0] == locked
    assert unit.hop_index == 1
    assert payment.inflight == locked
    assert store.balance_flat.item(d) == before - locked


def _advance_per_unit(transport, units):
    """Reference for ``advance_many``: one advance event per unit, in
    launch order."""
    for unit in units:
        transport._schedule_advance(unit)


def _hop_run(config):
    """(metrics bytes, final balances, events fired) of one run."""
    session = SimulationSession.from_config(config)
    metrics = metrics_to_json(session.run()).encode()
    store = session.network.state_store
    return metrics, store.balance[: len(store)].copy(), session.events_processed


@pytest.mark.parametrize(
    "scheme",
    ["spider-window", "spider-queueing"],
)
@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_advance_many_matches_per_unit_scheduling(scheme, topology, monkeypatch):
    """Coalescing a service batch's advances into per-delay cohort events
    fires in exactly the order one event per unit would: same metrics
    bytes, same final balances, never more events."""
    config = ExperimentConfig(
        scheme=scheme,
        topology=topology,
        capacity=200.0,
        num_transactions=150,
        arrival_rate=50.0,
        seed=17,
    )
    batched = _hop_run(config)
    monkeypatch.setattr(HopByHopTransport, "advance_many", _advance_per_unit)
    per_unit = _hop_run(config)
    assert batched[0] == per_unit[0]
    assert np.array_equal(batched[1], per_unit[1])
    assert batched[2] <= per_unit[2]


class TestBackpressureNative:
    def test_celer_completes_on_tick_engine(self):
        network = line_topology(4).build_network(default_capacity=100.0)
        records = [record(0, 1.0, 0, 3, 10.0), record(1, 2.0, 3, 0, 5.0)]
        session = SimulationSession(
            network,
            records,
            make_scheme("celer"),
            RuntimeConfig(end_time=30.0, check_invariants=True),
        )
        metrics = session.run()
        assert isinstance(session.transport, BackpressureTransport)
        assert metrics.completed == 2
        assert network.total_inflight() == pytest.approx(0.0)

    def test_backlog_drains_by_end_of_run(self):
        network = line_topology(4).build_network(default_capacity=60.0)
        records = [record(i, 0.5 + 0.1 * i, 0, 3, 8.0) for i in range(10)]
        session = SimulationSession(
            network,
            records,
            make_scheme("celer"),
            RuntimeConfig(end_time=20.0, check_invariants=True),
        )
        session.run()
        transport = session.transport
        assert transport.units_injected >= 10
        assert all(
            not q for dests in transport._queues.values() for q in dests.values()
        )
        assert network.total_inflight() == pytest.approx(0.0)

    def test_invalid_parameters_rejected(self):
        network = line_topology(3).build_network(default_capacity=10.0)
        session = SimulationSession(network, [], make_scheme("celer"))
        for kwargs in (
            {"service_interval": 0.0},
            {"beta": -1.0},
            {"max_hops": 0},
            {"stuck_after": 0.0},
        ):
            with pytest.raises(ValueError):
                BackpressureTransport(session, **kwargs)
