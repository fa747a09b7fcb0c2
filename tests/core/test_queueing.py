"""Tests for in-network router queues (§4.2, hop-by-hop forwarding)."""

from __future__ import annotations

import pytest

from repro.core.queueing import SpiderQueueingScheme
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.routing.base import RoutingScheme
from repro.topology.generators import line_topology
from repro.workload.generator import TransactionRecord
from tests.path_helpers import lock


class LaunchOnLine(RoutingScheme):
    """Minimal hop-by-hop scheme: launch the remaining value on the line path."""

    name = "test-hop-launch"
    atomic = False
    transport = "hop"

    def __init__(self, **transport_kwargs):
        self.transport_kwargs = transport_kwargs

    def runtime_kwargs(self):
        return self.transport_kwargs

    def attempt(self, payment, runtime):
        step = 1 if payment.dest >= payment.source else -1
        path = tuple(range(payment.source, payment.dest + step, step))
        cpath = runtime.network.path_table.compile(path)
        runtime.send_unit_hop_by_hop(payment, cpath, payment.remaining)


def make_runtime(records, capacity=100.0, nodes=4, end_time=30.0, **kwargs):
    network = line_topology(nodes).build_network(default_capacity=capacity)
    defaults = dict(hop_delay=0.05, queue_timeout=5.0)
    defaults.update(kwargs)
    return SimulationSession(
        network,
        records,
        LaunchOnLine(**defaults),
        RuntimeConfig(end_time=end_time, check_invariants=True),
    )


def record(txn_id, t, source, dest, amount, deadline=None):
    return TransactionRecord(txn_id, t, source, dest, amount, deadline)


class TestHopByHopDelivery:
    def test_simple_payment_completes(self):
        runtime = make_runtime([record(0, 1.0, 0, 3, 10.0)])
        metrics = runtime.run()
        assert metrics.completed == 1
        # Arrival after 3 hops x 0.05s + settle 0.5s.
        assert runtime.payments[0].completed_at == pytest.approx(1.0 + 2 * 0.05 + 0.5)
        runtime.network.check_invariants()

    def test_funds_settle_at_every_hop(self):
        runtime = make_runtime([record(0, 1.0, 0, 3, 10.0)])
        runtime.run()
        network = runtime.network
        assert network.channel(0, 1).balance(0) == pytest.approx(40.0)
        assert network.channel(2, 3).balance(3) == pytest.approx(60.0)
        assert network.total_inflight() == 0.0

    def test_unit_queues_when_mid_path_is_dry(self):
        """The §4.2 behaviour the source-routed model cannot express: the
        unit advances to the dry hop and waits there, not at the source."""
        runtime = make_runtime([record(0, 1.0, 0, 3, 40.0)])
        # Drain channel 1->2 before the run (held HTLC, never resolved).
        lock(runtime.network, (1, 2), 45.0)
        metrics = runtime.run()
        # The unit queued at router 1 (possibly several times: the pending
        # queue relaunches it after each timeout refund).
        assert runtime.transport.units_queued >= 1
        assert runtime.transport.units_timed_out >= 1
        assert metrics.completed == 0
        # All payment funds refunded; only the held test HTLC stays in flight.
        assert runtime.network.total_inflight() == pytest.approx(45.0)

    def test_queued_unit_released_by_reverse_traffic(self):
        """Funds arriving from the other side release the queue (Fig. 3)."""
        runtime = make_runtime(
            [
                record(0, 1.0, 0, 3, 30.0),  # queues at router 1 (5 available)
                record(1, 2.0, 3, 0, 40.0),  # reverse flow replenishes 1->2
            ],
            queue_timeout=20.0,
        )
        # Leave only 5 spendable in the 1->2 direction.
        lock(runtime.network, (1, 2), 45.0)
        metrics = runtime.run()
        assert runtime.transport.units_queued >= 1
        assert runtime.payments[0].is_complete
        assert metrics.completed == 2
        assert runtime.transport.mean_queue_delay > 0.0

    def test_timeout_refunds_upstream_hops(self):
        runtime = make_runtime(
            [record(0, 1.0, 0, 3, 40.0)], queue_timeout=1.0, end_time=3.5
        )
        lock(runtime.network, (2, 3), 45.0)
        runtime.run()
        # Hops 0->1 and 1->2 were locked, then refunded on timeout (the
        # relaunch cycle repeats while the run lasts).
        assert runtime.transport.units_timed_out >= 1
        assert runtime.network.channel(0, 1).balance(0) == pytest.approx(50.0)
        assert runtime.network.channel(1, 2).balance(1) == pytest.approx(50.0)

    def test_deadline_withholds_key_at_settlement(self):
        records = [record(0, 1.0, 0, 3, 10.0, deadline=1.2)]
        runtime = make_runtime(records)
        metrics = runtime.run()
        # Arrival at ~1.1, settlement due at ~1.6 > deadline -> withheld.
        assert metrics.delivered_value == 0.0
        assert runtime.network.total_inflight() == 0.0

    def test_stranded_queue_drained_at_end_of_run(self):
        runtime = make_runtime([record(0, 1.0, 0, 3, 40.0)], queue_timeout=500.0)
        lock(runtime.network, (1, 2), 45.0)
        runtime.run()
        # The stranded unit was aborted and refunded; only the held test
        # HTLC remains in flight.
        assert runtime.network.total_inflight() == pytest.approx(45.0)
        assert runtime.payments[0].inflight == pytest.approx(0.0)

    def test_timed_out_corpse_is_skipped_at_service(self):
        """Timeouts are lazily cancelled: the timed-out unit stays in the
        deque as a corpse (no O(n) remove) and service must skip it to
        reach the live unit parked behind it."""
        records = [
            record(0, 1.0, 0, 3, 45.0),  # parks at router 1, times out
            record(1, 1.2, 0, 3, 4.0),  # parks behind it, stays live
            record(2, 1.1, 3, 0, 40.0),  # reverse credit before the timeout
            record(3, 1.6, 3, 0, 10.0),  # reverse credit after the timeout
        ]
        runtime = make_runtime(records, queue_timeout=1.0, end_time=3.4)
        lock(runtime.network, (1, 2), 50.0)  # drain 1->2 fully
        runtime.run()
        assert runtime.transport.units_timed_out >= 1
        assert runtime.payments[1].is_complete
        runtime.network.check_invariants()

    def test_finish_drain_does_not_relaunch_queued_units(self):
        """Refunds cascading out of the end-of-run drain must not service
        other queues (the simulator never fires the relaunched advances)."""
        from repro.network.network import PaymentNetwork

        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_channel(1, 2, 100.0)
        network.add_channel(2, 0, 100.0)

        paths = {0: (2, 0, 1), 1: (1, 2, 0)}

        class LaunchFixedPaths(RoutingScheme):
            name = "test-fixed-paths"
            atomic = False
            transport = "hop"

            def attempt(self, payment, runtime):
                cpath = runtime.network.path_table.compile(
                    paths[payment.payment_id]
                )
                runtime.send_unit_hop_by_hop(payment, cpath, payment.remaining)

        lock(network, (0, 1), 50.0)  # direction (0,1) is dry
        runtime = SimulationSession(
            network,
            [
                record(0, 1.0, 2, 1, 50.0),  # locks 2->0, parks at (0,1)
                record(1, 1.1, 1, 0, 10.0),  # locks 1->2, parks at (2,0)
            ],
            LaunchFixedPaths(),
            RuntimeConfig(end_time=2.0, check_invariants=True),
        )
        runtime.run()
        assert network.total_inflight() == pytest.approx(50.0)
        assert runtime.payments[1].inflight == pytest.approx(0.0)

    def test_queue_depth_reported_to_collector(self):
        runtime = make_runtime([record(0, 1.0, 0, 3, 30.0)], end_time=3.0)
        lock(runtime.network, (1, 2), 45.0)
        metrics = runtime.run()
        assert metrics.max_queue_depth >= 1
        assert metrics.mean_queue_depth > 0.0

    def test_invalid_parameters(self):
        network = line_topology(3).build_network(default_capacity=10.0)
        config = RuntimeConfig(end_time=1.0)
        for bad in (
            dict(hop_delay=-1.0),
            dict(queue_timeout=0.0),
        ):
            session = SimulationSession(network, [], LaunchOnLine(**bad), config)
            with pytest.raises(ValueError):
                session.prepare()


class TestSpiderQueueingScheme:
    def test_runs_under_queueing_runtime(self):
        records = [record(0, 1.0, 0, 3, 30.0), record(1, 2.0, 3, 0, 30.0)]
        network = line_topology(4).build_network(default_capacity=100.0)
        runtime = SimulationSession(
            network,
            records,
            SpiderQueueingScheme(),
            RuntimeConfig(end_time=30.0, check_invariants=True),
        )
        metrics = runtime.run()
        assert metrics.completed == 2

    def test_rejects_plain_runtime(self):
        """A session with no hop transport attached cannot run the scheme."""

        class NoTransport(SpiderQueueingScheme):
            transport = None

        records = [record(0, 1.0, 0, 2, 10.0)]
        network = line_topology(3).build_network(default_capacity=100.0)
        runtime = SimulationSession(
            network, records, NoTransport(), RuntimeConfig(end_time=5.0)
        )
        with pytest.raises(TypeError):
            runtime.run()

    def test_registry_and_runner_integration(self):
        from repro.experiments import ExperimentConfig, run_experiment

        metrics = run_experiment(
            ExperimentConfig(
                scheme="spider-queueing",
                topology="cycle-5",
                capacity=2_000.0,
                num_transactions=100,
                arrival_rate=50.0,
                seed=3,
                check_invariants=True,
            )
        )
        assert metrics.attempted == 100
        assert metrics.completed > 0


class TestSpiderQueueingPathChoice:
    """Each unit goes on the path with the most bottleneck headroom left
    (waterfilling), first path on ties; a refused launch retires its path."""

    @staticmethod
    def _sends(wide, refuse_first=False):
        """The (path, amount) launches of one 40-value 0→2 payment on the
        square 0-1-2-3-0: channels on (0, 1, 2) hold 100, those on
        (0, 3, 2) hold ``wide``; the MTU is 10."""
        from repro.network.network import PaymentNetwork

        network = PaymentNetwork()
        for u, v in ((0, 1), (1, 2)):
            network.add_channel(u, v, 100.0)
        for u, v in ((0, 3), (3, 2)):
            network.add_channel(u, v, wide)
        config = RuntimeConfig(end_time=5.0, mtu=10.0)
        session = SimulationSession(network, [], SpiderQueueingScheme(), config)
        session.prepare()
        launch = session.send_unit_hop_by_hop
        sends = []

        def recording(payment, cpath, value):
            sends.append((cpath.nodes, value))
            if refuse_first and len(sends) == 1:
                return False
            return launch(payment, cpath, value)

        session.send_unit_hop_by_hop = recording
        payment = session._new_payment(record(0, 0.0, 0, 2, 40.0))
        session.scheme.attempt(payment, session)
        return sends

    def test_units_go_on_the_widest_path(self):
        assert self._sends(wide=300.0) == [((0, 3, 2), 10.0)] * 4

    def test_equal_paths_are_filled_alternately(self):
        paths = [path for path, _ in self._sends(wide=100.0)]
        assert len(paths) == 4
        assert paths[0] != paths[1]
        assert paths == paths[:2] * 2

    def test_refused_path_is_not_retried(self):
        sends = self._sends(wide=300.0, refuse_first=True)
        assert sends[0][0] == (0, 3, 2)
        assert [path for path, _ in sends[1:]] == [(0, 1, 2)] * 4

    def test_rejects_non_positive_num_paths(self):
        with pytest.raises(ValueError):
            SpiderQueueingScheme(num_paths=0)
