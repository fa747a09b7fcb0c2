"""Tests for fault injection (channel closures, node churn)."""

from __future__ import annotations

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.errors import ConfigError, InsufficientFundsError
from repro.network.faults import (
    ChannelClosure,
    FaultSchedule,
    NodeOutage,
    random_churn_schedule,
)
from repro.network.network import PaymentNetwork
from repro.routing import make_scheme
from repro.topology.generators import cycle_topology, line_topology
from repro.workload.generator import TransactionRecord


class TestChannelFreeze:
    def test_frozen_channel_rejects_locks(self):
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 100.0)
        channel.freeze()
        assert channel.frozen
        assert channel.available(0) == 0.0
        assert channel.available(1) == 0.0
        with pytest.raises(InsufficientFundsError):
            network.lock_path((0, 1), 10.0)

    def test_pending_locks_resolve_while_frozen(self):
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 100.0)
        lock = network.lock_path((0, 1), 20.0)
        channel.freeze()
        network.settle_path((0, 1), lock)  # in-flight transfers still complete (§2)
        assert channel.balance(1) == pytest.approx(70.0)
        channel.check_invariant()

    def test_unfreeze_restores_service(self):
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 100.0)
        channel.freeze()
        channel.unfreeze()
        assert not channel.frozen
        assert channel.available(0) == pytest.approx(50.0)
        network.lock_path((0, 1), 10.0)

    def test_freeze_conserves_funds(self):
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 100.0)
        before = network.total_funds()
        channel.freeze()
        channel.unfreeze()
        assert network.total_funds() == pytest.approx(before)
        network.check_invariants()


class TestFaultEvents:
    def test_closure_validation(self):
        with pytest.raises(ConfigError):
            ChannelClosure(time=-1.0, u=0, v=1)

    def test_outage_validation(self):
        with pytest.raises(ConfigError):
            NodeOutage(start=5.0, end=5.0, node=0)
        with pytest.raises(ConfigError):
            NodeOutage(start=-1.0, end=2.0, node=0)

    def test_schedule_rejects_unknown_events(self):
        with pytest.raises(ConfigError):
            FaultSchedule(["not-a-fault"])

    def test_schedule_length(self):
        schedule = FaultSchedule(
            [ChannelClosure(1.0, 0, 1), NodeOutage(2.0, 3.0, 4)]
        )
        assert len(schedule) == 2


class TestScheduleExecution:
    def run_with_faults(self, network, records, schedule, scheme="spider-waterfilling",
                        end_time=30.0):
        runtime = SimulationSession(
            network,
            records,
            make_scheme(scheme),
            RuntimeConfig(end_time=end_time, check_invariants=True),
        )
        schedule.install(runtime)
        return runtime.run(), runtime

    def test_closure_blocks_later_payments(self):
        # Payment at t=1 passes; the channel closes at t=2; the t=3 payment
        # fails (line topology: no alternative).
        network = line_topology(3).build_network(default_capacity=100.0)
        schedule = FaultSchedule([ChannelClosure(2.0, 1, 2)])
        records = [
            TransactionRecord(0, 1.0, 0, 2, 10.0),
            TransactionRecord(1, 3.0, 0, 2, 10.0),
        ]
        metrics, runtime = self.run_with_faults(network, records, schedule)
        assert runtime.payments[0].is_complete
        assert not runtime.payments[1].is_complete
        assert schedule.closures_applied == 1

    def test_outage_is_transient(self):
        # Node 1 is down for t in [2, 4); payments before and after pass.
        network = line_topology(3).build_network(default_capacity=100.0)
        schedule = FaultSchedule([NodeOutage(2.0, 4.0, 1)])
        records = [
            TransactionRecord(0, 1.0, 0, 2, 10.0),
            TransactionRecord(1, 2.5, 0, 2, 10.0),
            TransactionRecord(2, 5.0, 0, 2, 10.0),
        ]
        metrics, runtime = self.run_with_faults(network, records, schedule)
        assert runtime.payments[0].is_complete
        assert runtime.payments[2].is_complete
        # The mid-outage payment eventually completes too: it waits in the
        # pending queue and retries after the node returns.
        assert runtime.payments[1].is_complete
        assert runtime.payments[1].completed_at > 4.0

    def test_atomic_scheme_fails_during_outage(self):
        # LND tries (with retries) only at arrival: a mid-outage payment on
        # a line has no alternative and fails for good.
        network = line_topology(3).build_network(default_capacity=100.0)
        schedule = FaultSchedule([NodeOutage(2.0, 4.0, 1)])
        records = [TransactionRecord(0, 2.5, 0, 2, 10.0)]
        metrics, _ = self.run_with_faults(network, records, schedule, scheme="lnd")
        assert metrics.failed == 1

    def test_multipath_routes_around_closure(self):
        # On a 6-cycle, closing one direction of the short route leaves the
        # long route; waterfilling finds it.
        network = cycle_topology(6).build_network(default_capacity=100.0)
        schedule = FaultSchedule([ChannelClosure(0.5, 1, 2)])
        records = [TransactionRecord(0, 1.0, 0, 3, 10.0)]
        metrics, runtime = self.run_with_faults(network, records, schedule)
        assert metrics.completed == 1
        assert runtime.network.channel(0, 5).settled_flow(0) == pytest.approx(10.0)

    def test_overlapping_outages_reference_count(self):
        # Nodes 1 and 2 share a channel; both go down with overlap.  The
        # shared channel must stay frozen until *both* are back.
        network = line_topology(4).build_network(default_capacity=100.0)
        schedule = FaultSchedule(
            [NodeOutage(1.0, 5.0, 1), NodeOutage(2.0, 8.0, 2)]
        )
        runtime = SimulationSession(network, [], make_scheme("shortest-path"),
                          RuntimeConfig(end_time=10.0))
        schedule.install(runtime)
        channel = network.channel(1, 2)
        runtime.sim.run(until=6.0)  # node 1 back, node 2 still down
        assert channel.frozen
        runtime.sim.run(until=9.0)
        assert not channel.frozen

    def test_missing_channel_is_skipped(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        schedule = FaultSchedule([ChannelClosure(1.0, 0, 2)])  # no such channel
        metrics, _ = self.run_with_faults(
            network, [TransactionRecord(0, 2.0, 0, 2, 10.0)], schedule
        )
        assert schedule.closures_applied == 0
        assert metrics.completed == 1

    def test_funds_conserved_under_churn(self):
        network = cycle_topology(6).build_network(default_capacity=80.0)
        before = network.total_funds()
        schedule = random_churn_schedule(
            range(6), duration=20.0, churn_rate=0.5, outage_duration=2.0, seed=4
        )
        records = [
            TransactionRecord(i, 0.5 * i, i % 6, (i + 3) % 6, 15.0)
            for i in range(30)
        ]
        _, runtime = self.run_with_faults(network, records, schedule)
        runtime.network.check_invariants()
        assert runtime.network.total_funds() == pytest.approx(before)


class TestRandomChurn:
    def test_schedule_is_seed_deterministic(self):
        a = random_churn_schedule(range(10), 50.0, 0.2, 5.0, seed=9)
        b = random_churn_schedule(range(10), 50.0, 0.2, 5.0, seed=9)
        assert [(o.start, o.node) for o in a.outages] == [
            (o.start, o.node) for o in b.outages
        ]

    def test_rate_scales_outage_count(self):
        sparse = random_churn_schedule(range(10), 100.0, 0.05, 5.0, seed=1)
        dense = random_churn_schedule(range(10), 100.0, 0.5, 5.0, seed=1)
        assert len(dense.outages) > len(sparse.outages)

    def test_zero_rate_is_empty(self):
        schedule = random_churn_schedule(range(10), 100.0, 0.0, 5.0, seed=1)
        assert len(schedule) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0.0},
            {"churn_rate": -0.1},
            {"outage_duration": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        defaults = dict(
            nodes=range(5), duration=10.0, churn_rate=0.1, outage_duration=1.0
        )
        defaults.update(kwargs)
        with pytest.raises(ConfigError):
            random_churn_schedule(**defaults)

    def test_empty_node_set_rejected(self):
        with pytest.raises(ConfigError):
            random_churn_schedule([], 10.0, 0.1, 1.0)
