"""Tests for routing fees (§2, §4.1's max-fee budget)."""

from __future__ import annotations

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.core.waterfilling import WaterfillingScheme
from repro.routing.shortest_path import ShortestPathScheme
from repro.topology.generators import line_topology
from repro.workload.generator import TransactionRecord


def fee_network(base_fee=0.0, fee_rate=0.0, nodes=4, capacity=1000.0):
    return line_topology(nodes).build_network(
        default_capacity=capacity, base_fee=base_fee, fee_rate=fee_rate
    )


def run(network, records, **config_kwargs):
    config = RuntimeConfig(end_time=20.0, check_invariants=True, **config_kwargs)
    runtime = SimulationSession(network, records, ShortestPathScheme(), config)
    return runtime.run(), runtime


class TestHopAmounts:
    def test_fee_free_network_locks_flat(self):
        network = fee_network()
        assert network.path_table.compile((0, 1, 2, 3)).hop_amounts(100.0) == [100.0, 100.0, 100.0]

    def test_proportional_fees_compound_upstream(self):
        network = fee_network(fee_rate=0.01)
        amounts = network.path_table.compile((0, 1, 2, 3)).hop_amounts(100.0)
        # Last hop delivers 100; node 2 charges 1% of 100; node 1 charges 1%
        # of 101.
        assert amounts[2] == pytest.approx(100.0)
        assert amounts[1] == pytest.approx(101.0)
        assert amounts[0] == pytest.approx(102.01)

    def test_base_fees_add_per_intermediate(self):
        network = fee_network(base_fee=2.0)
        amounts = network.path_table.compile((0, 1, 2, 3)).hop_amounts(100.0)
        assert amounts == pytest.approx([104.0, 102.0, 100.0])

    def test_direct_path_has_no_fee(self):
        network = fee_network(base_fee=5.0, fee_rate=0.1)
        # No intermediaries on a single hop: sender pays exactly the amount.
        assert network.path_table.compile((0, 1)).hop_amounts(100.0) == [100.0]


class TestFeeSettlement:
    def test_intermediaries_earn_their_fee(self):
        network = fee_network(base_fee=2.0)
        records = [TransactionRecord(0, 1.0, 0, 3, 100.0)]
        metrics, runtime = run(network, records)
        assert metrics.completed == 1
        assert metrics.total_fees_paid == pytest.approx(4.0)
        assert runtime.payments[0].fees_paid == pytest.approx(4.0)
        # Router 1 received 104 on (0,1) and forwarded 102 on (1,2): +2 net.
        node1_total = network.channel(0, 1).balance(1) + network.channel(1, 2).balance(1)
        assert node1_total == pytest.approx(1000.0 + 2.0)
        node2_total = network.channel(1, 2).balance(2) + network.channel(2, 3).balance(2)
        assert node2_total == pytest.approx(1000.0 + 2.0)
        # The destination receives exactly the payment amount.
        assert network.channel(2, 3).balance(3) == pytest.approx(500.0 + 100.0)
        network.check_invariants()

    def test_sender_pays_amount_plus_fees(self):
        network = fee_network(base_fee=2.0)
        records = [TransactionRecord(0, 1.0, 0, 3, 100.0)]
        run(network, records)
        assert network.channel(0, 1).balance(0) == pytest.approx(500.0 - 104.0)

    def test_refund_returns_fees_too(self):
        network = fee_network(base_fee=2.0)
        # Expired at settlement: everything refunds, including fee margins.
        records = [TransactionRecord(0, 1.0, 0, 3, 100.0, 1.2)]
        metrics, runtime = run(network, records)
        assert metrics.delivered_value == 0.0
        assert metrics.total_fees_paid == 0.0
        assert network.channel(0, 1).balance(0) == pytest.approx(500.0)
        network.check_invariants()

    def test_fee_free_default_is_unchanged(self):
        network = fee_network()
        records = [TransactionRecord(0, 1.0, 0, 3, 100.0)]
        metrics, _ = run(network, records)
        assert metrics.total_fees_paid == 0.0


class TestMaxFeeBudget:
    def test_unit_blocked_when_fee_exceeds_budget(self):
        network = fee_network(fee_rate=0.10)  # ~21% fee over 2 intermediaries
        records = [TransactionRecord(0, 1.0, 0, 3, 100.0)]
        metrics, runtime = run(network, records, max_fee_fraction=0.05)
        assert metrics.completed == 0
        assert metrics.delivered_value == 0.0
        assert runtime.payments[0].fees_paid == 0.0

    def test_budget_allows_cheap_routes(self):
        network = fee_network(fee_rate=0.01)  # ~2% total
        records = [TransactionRecord(0, 1.0, 0, 3, 100.0)]
        metrics, _ = run(network, records, max_fee_fraction=0.05)
        assert metrics.completed == 1

    def test_no_budget_means_unlimited(self):
        network = fee_network(fee_rate=0.10)
        records = [TransactionRecord(0, 1.0, 0, 3, 100.0)]
        metrics, _ = run(network, records)
        assert metrics.completed == 1
        assert metrics.total_fees_paid > 0.0

    def test_invalid_fraction_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            RuntimeConfig(max_fee_fraction=-0.1)


class TestFeesWithMultipath:
    def test_waterfilling_pays_fees_on_every_path(self, triangle=None):
        from repro.network.network import PaymentNetwork

        network = PaymentNetwork()
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            network.add_channel(u, v, 100.0, base_fee=1.0)
        records = [TransactionRecord(0, 1.0, 0, 1, 70.0)]
        runtime = SimulationSession(
            network,
            records,
            WaterfillingScheme(num_paths=2),
            RuntimeConfig(end_time=20.0, check_invariants=True),
        )
        metrics = runtime.run()
        assert metrics.completed == 1
        # Only the 0-2-1 detour has an intermediary: fee == 1 (one unit via 2).
        assert metrics.total_fees_paid == pytest.approx(1.0)

    def test_experiment_config_propagates_fees(self):
        from repro.experiments import ExperimentConfig, run_experiment

        metrics = run_experiment(
            ExperimentConfig(
                scheme="spider-waterfilling",
                topology="isp",
                capacity=3_000.0,
                num_transactions=150,
                arrival_rate=60.0,
                seed=2,
                fee_rate=0.001,
            )
        )
        assert metrics.total_fees_paid > 0.0
        zero_fee = run_experiment(
            ExperimentConfig(
                scheme="spider-waterfilling",
                topology="isp",
                capacity=3_000.0,
                num_transactions=150,
                arrival_rate=60.0,
                seed=2,
            )
        )
        assert zero_fee.total_fees_paid == 0.0
