"""Tests for router economics (fee revenue, escrow, yield, Gini)."""

from __future__ import annotations

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.metrics.incentives import (
    IncentiveCollector,
    escrow_by_node,
    fee_yield_report,
    gini,
)
from repro.network.network import PaymentNetwork
from repro.routing import make_scheme
from repro.topology.generators import line_topology, star_topology
from repro.workload.generator import TransactionRecord
from tests.path_helpers import lock


def run_with_fees(network, records, end_time=30.0):
    collector = IncentiveCollector()
    runtime = SimulationSession(
        network,
        records,
        make_scheme("shortest-path"),
        RuntimeConfig(end_time=end_time, check_invariants=True),
        collector=collector,
    )
    metrics = runtime.run()
    return metrics, collector


class TestRevenueAttribution:
    def fee_line(self, fee_rate=0.1):
        """0—1—2—3 where every channel charges ``fee_rate`` proportional."""
        network = PaymentNetwork()
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            network.add_channel(u, v, 1_000.0, fee_rate=fee_rate)
        return network

    def test_intermediaries_earn_their_hop_fee(self):
        network = self.fee_line(fee_rate=0.1)
        metrics, collector = run_with_fees(
            network, [TransactionRecord(0, 1.0, 0, 3, 100.0)]
        )
        assert metrics.completed == 1
        # Working back from 100 delivered: node 2 charges 10 (fee of channel
        # 2-3 on 100), node 1 charges 11 (fee of channel 1-2 on 110).
        assert collector.router_revenue[2] == pytest.approx(10.0)
        assert collector.router_revenue[1] == pytest.approx(11.0)
        assert 0 not in collector.router_revenue  # senders earn nothing
        assert 3 not in collector.router_revenue  # receivers earn nothing

    def test_revenue_matches_total_fees_paid(self):
        network = self.fee_line(fee_rate=0.05)
        records = [
            TransactionRecord(0, 1.0, 0, 3, 50.0),
            TransactionRecord(1, 2.0, 3, 0, 80.0),
        ]
        metrics, collector = run_with_fees(network, records)
        assert sum(collector.router_revenue.values()) == pytest.approx(
            metrics.total_fees_paid
        )

    def test_forwarded_value_counts_only_relay_traffic(self):
        network = self.fee_line(fee_rate=0.0)
        metrics, collector = run_with_fees(
            network, [TransactionRecord(0, 1.0, 0, 3, 100.0)]
        )
        assert collector.router_forwarded[1] == pytest.approx(100.0)
        assert collector.router_forwarded[2] == pytest.approx(100.0)
        assert collector.router_revenue == {}  # fee-free network

    def test_cancelled_units_earn_nothing(self):
        network = self.fee_line(fee_rate=0.1)
        # Deadline shorter than the confirmation delay: the unit settles
        # too late and is withheld.
        records = [TransactionRecord(0, 1.0, 0, 3, 100.0, deadline=1.1)]
        metrics, collector = run_with_fees(network, records)
        assert metrics.completed == 0
        assert collector.router_revenue == {}


class TestEscrow:
    def test_escrow_by_node_even_split(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        escrow = escrow_by_node(network)
        assert escrow[0] == pytest.approx(50.0)
        assert escrow[1] == pytest.approx(100.0)  # two channels
        assert escrow[2] == pytest.approx(50.0)

    def test_escrow_includes_inflight(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        lock(network, (0, 1), 20.0)
        escrow = escrow_by_node(network)
        assert escrow[0] == pytest.approx(50.0)  # 30 spendable + 20 in flight


class TestGini:
    def test_equal_distribution_is_zero(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0, abs=1e-9)

    def test_total_concentration_approaches_one(self):
        values = [0.0] * 99 + [100.0]
        assert gini(values) == pytest.approx(0.99, abs=0.01)

    def test_empty_and_zero_inputs(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            gini([1.0, -2.0])

    def test_known_value(self):
        # For [1, 2, 3]: G = (2*(1*1+2*2+3*3))/(3*6) - 4/3 = 28/18 - 4/3 = 2/9.
        assert gini([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 9.0)


class TestYieldReport:
    def test_hub_earns_the_yield(self):
        # A star: every payment relays through the hub (node 0).
        network = star_topology(5).build_network(default_capacity=1_000.0)
        for channel in network.channels():
            channel.fee_rate = 0.01
        initial = escrow_by_node(network)
        records = [
            TransactionRecord(i, 1.0 + 0.1 * i, 1 + i % 4, 1 + (i + 1) % 4, 50.0)
            for i in range(8)
        ]
        collector = IncentiveCollector()
        runtime = SimulationSession(
            network,
            records,
            make_scheme("shortest-path"),
            RuntimeConfig(end_time=30.0),
            collector=collector,
        )
        runtime.run()
        report = fee_yield_report(collector, initial, duration=30.0)
        assert report[0].node == 0  # hub tops the revenue table
        assert report[0].revenue == pytest.approx(8 * 0.5)
        assert report[0].fee_yield > 0
        leaf_rows = [r for r in report if r.node != 0]
        assert all(r.revenue == 0.0 for r in leaf_rows)
        revenue_gini = gini([r.revenue for r in report])
        assert revenue_gini > 0.7  # hub topology concentrates income

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            fee_yield_report(IncentiveCollector(), {}, duration=0.0)

    def test_zero_escrow_yields_zero(self):
        collector = IncentiveCollector()
        report = fee_yield_report(collector, {7: 0.0}, duration=10.0)
        assert report[0].fee_yield == 0.0
