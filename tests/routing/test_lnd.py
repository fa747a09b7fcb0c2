"""Tests for the LND-style baseline (single cheapest path + pruning)."""

from __future__ import annotations

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.network.network import PaymentNetwork
from repro.routing.lnd import LndScheme
from repro.topology.generators import cycle_topology, line_topology
from repro.workload.generator import TransactionRecord


def run(records, network, scheme=None, **config_kwargs):
    scheme = scheme or LndScheme()
    runtime = SimulationSession(
        network,
        records,
        scheme,
        RuntimeConfig(end_time=30.0, **config_kwargs),
    )
    return runtime.run(), runtime


def two_route_network(short_fee_rate=0.0, long_fee_rate=0.0, capacity=100.0):
    """0→3 via the 2-hop route 0-1-3 or the 3-hop route 0-2-4-3."""
    network = PaymentNetwork()
    network.add_channel(0, 1, capacity, fee_rate=short_fee_rate)
    network.add_channel(1, 3, capacity, fee_rate=short_fee_rate)
    network.add_channel(0, 2, capacity, fee_rate=long_fee_rate)
    network.add_channel(2, 4, capacity, fee_rate=long_fee_rate)
    network.add_channel(4, 3, capacity, fee_rate=long_fee_rate)
    return network


class TestPathSelection:
    def test_delivers_atomically_on_a_line(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        metrics, runtime = run([TransactionRecord(0, 1.0, 0, 2, 30.0)], network)
        assert metrics.completed == 1
        assert runtime.network.channel(0, 1).settled_flow(0) == pytest.approx(30.0)
        assert runtime.network.channel(1, 2).settled_flow(1) == pytest.approx(30.0)

    def test_prefers_fewer_hops_when_fees_are_equal(self):
        network = two_route_network()
        _, runtime = run([TransactionRecord(0, 1.0, 0, 3, 10.0)], network)
        assert runtime.network.channel(0, 1).settled_flow(0) == pytest.approx(10.0)
        assert runtime.network.channel(0, 2).settled_flow(0) == 0.0

    def test_prefers_cheaper_fees_over_fewer_hops(self):
        # Short route charges 10% per intermediary; long route is free and
        # the hop penalty is small, so the fee term dominates.
        network = two_route_network(short_fee_rate=0.10, long_fee_rate=0.0)
        scheme = LndScheme(hop_penalty=0.01)
        metrics, runtime = run(
            [TransactionRecord(0, 1.0, 0, 3, 10.0)], network, scheme=scheme
        )
        assert metrics.completed == 1
        assert runtime.network.channel(0, 2).settled_flow(0) == pytest.approx(10.0)
        assert runtime.network.channel(0, 1).settled_flow(0) == 0.0

    def test_fee_accounting_matches_hop_amounts(self):
        network = two_route_network(short_fee_rate=0.05, long_fee_rate=0.5)
        metrics, runtime = run([TransactionRecord(0, 1.0, 0, 3, 10.0)], network)
        assert metrics.completed == 1
        payment = runtime.payments[0]
        # One intermediary (node 1) charges 5% of the delivered 10.
        assert payment.fees_paid == pytest.approx(0.5)

    def test_unreachable_destination_fails(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        network.add_node(99)
        metrics, _ = run([TransactionRecord(0, 1.0, 0, 99, 10.0)], network)
        assert metrics.completed == 0
        assert metrics.failed == 1

    def test_amount_above_gossiped_capacity_skips_channel(self):
        # The 2-hop route's channels cannot ever carry 60; LND must not even
        # try them and goes straight to the long route.
        network = PaymentNetwork()
        network.add_channel(0, 1, 50.0)
        network.add_channel(1, 3, 50.0)
        network.add_channel(0, 2, 200.0)
        network.add_channel(2, 4, 200.0)
        network.add_channel(4, 3, 200.0)
        scheme = LndScheme()
        metrics, runtime = run(
            [TransactionRecord(0, 1.0, 0, 3, 60.0)], network, scheme=scheme
        )
        assert metrics.completed == 1
        assert runtime.network.channel(0, 2).settled_flow(0) == pytest.approx(60.0)
        assert scheme.failures_reported == 0


class TestRetriesAndMissionControl:
    def drained_short_route(self):
        """Short route 0-1-3 looks fine from gossip but 1→3 is unfunded."""
        network = two_route_network()
        # Shift all of node 1's funds to node 3's side.
        network.settle_path((1, 3), network.lock_path((1, 3), 50.0))
        return network

    def test_prunes_unfunded_hop_and_retries(self):
        network = self.drained_short_route()
        scheme = LndScheme()
        metrics, runtime = run(
            [TransactionRecord(0, 1.0, 0, 3, 10.0)], network, scheme=scheme
        )
        assert metrics.completed == 1
        assert scheme.failures_reported == 1
        # Delivery went over the long route.
        assert runtime.network.channel(0, 2).settled_flow(0) == pytest.approx(10.0)

    def test_mission_control_remembers_across_payments(self):
        network = self.drained_short_route()
        scheme = LndScheme(forget_time=100.0)
        records = [
            TransactionRecord(0, 1.0, 0, 3, 10.0),
            TransactionRecord(1, 2.0, 0, 3, 10.0),
        ]
        metrics, _ = run(records, network, scheme=scheme)
        assert metrics.completed == 2
        # Only the first payment probes the broken hop.
        assert scheme.failures_reported == 1
        assert scheme.attempts_used == 3  # 2 for payment 0, 1 for payment 1

    def test_forgotten_failures_are_probed_again(self):
        network = self.drained_short_route()
        scheme = LndScheme(forget_time=0.5)
        records = [
            TransactionRecord(0, 1.0, 0, 3, 10.0),
            TransactionRecord(1, 10.0, 0, 3, 10.0),  # well past forget_time
        ]
        metrics, _ = run(records, network, scheme=scheme)
        assert metrics.completed == 2
        assert scheme.failures_reported == 2

    def test_zero_forget_time_disables_memory(self):
        network = self.drained_short_route()
        scheme = LndScheme(forget_time=0.0)
        records = [
            TransactionRecord(0, 1.0, 0, 3, 10.0),
            TransactionRecord(1, 2.0, 0, 3, 10.0),
        ]
        metrics, _ = run(records, network, scheme=scheme)
        assert metrics.completed == 2
        assert scheme.failures_reported == 2

    def test_max_attempts_exhaustion_fails_payment(self):
        # Every route to 3 is drained; with max_attempts=1 LND gives up
        # after the first reported failure.
        network = two_route_network()
        for hop in [(1, 3), (4, 3)]:
            network.settle_path(hop, network.lock_path(hop, 50.0))
        scheme = LndScheme(max_attempts=1)
        metrics, _ = run([TransactionRecord(0, 1.0, 0, 3, 10.0)], network, scheme=scheme)
        assert metrics.failed == 1
        assert scheme.attempts_used == 1

    def test_sender_balance_is_known_exactly(self):
        # The sender's own 0→1 direction is drained: no retry is wasted on
        # it because senders see their own balances, not just capacity.
        network = two_route_network()
        network.settle_path((0, 1), network.lock_path((0, 1), 50.0))
        scheme = LndScheme()
        metrics, runtime = run(
            [TransactionRecord(0, 1.0, 0, 3, 10.0)], network, scheme=scheme
        )
        assert metrics.completed == 1
        assert scheme.failures_reported == 0
        assert runtime.network.channel(0, 2).settled_flow(0) == pytest.approx(10.0)


class TestFeeBudget:
    def test_fee_budget_rejection_fails_payment(self):
        network = line_topology(4).build_network(default_capacity=100.0)
        for channel in network.channels():
            channel.fee_rate = 0.2
        metrics, _ = run(
            [TransactionRecord(0, 1.0, 0, 3, 10.0)],
            network,
            max_fee_fraction=0.01,
        )
        assert metrics.failed == 1

    def test_generous_budget_allows_payment(self):
        network = line_topology(4).build_network(default_capacity=100.0)
        for channel in network.channels():
            channel.fee_rate = 0.01
        metrics, _ = run(
            [TransactionRecord(0, 1.0, 0, 3, 10.0)],
            network,
            max_fee_fraction=0.5,
        )
        assert metrics.completed == 1


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": -1},
            {"hop_penalty": -0.5},
            {"forget_time": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LndScheme(**kwargs)

    def test_registered_in_registry(self):
        from repro.routing.registry import make_scheme

        scheme = make_scheme("lnd", max_attempts=3)
        assert isinstance(scheme, LndScheme)
        assert scheme.max_attempts == 3

    def test_atomicity_flag(self):
        assert LndScheme.atomic is True


class TestOnCycleTopology:
    def test_retry_finds_the_other_way_around(self):
        # 6-cycle: 0→3 has two 3-hop routes; drain one, LND finds the other.
        network = cycle_topology(6).build_network(default_capacity=100.0)
        network.settle_path((1, 2), network.lock_path((1, 2), 50.0))
        scheme = LndScheme()
        metrics, _ = run([TransactionRecord(0, 1.0, 0, 3, 10.0)], network, scheme=scheme)
        assert metrics.completed == 1
