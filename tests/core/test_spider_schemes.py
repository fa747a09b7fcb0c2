"""Tests for the Spider routing schemes (waterfilling, LP, primal-dual)."""

from __future__ import annotations

import pytest

from repro.core.lp_routing import SpiderLPScheme
from repro.core.primal_dual_routing import SpiderPrimalDualScheme
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.core.waterfilling import WaterfillingScheme
from repro.topology.generators import cycle_topology, line_topology
from repro.topology.isp import isp_topology
from repro.workload.demand import records_from_demand
from repro.workload.generator import TransactionRecord
from tests.path_helpers import lock


def run(records, network, scheme, **config_kwargs):
    kwargs = dict(end_time=30.0)
    kwargs.update(config_kwargs)
    runtime = SimulationSession(network, records, scheme, RuntimeConfig(**kwargs))
    return runtime.run(), runtime


class TestWaterfilling:
    def test_splits_across_parallel_paths(self, triangle):
        # 0 -> 1: direct path (50) and via 2 (50).  70 needs both.
        records = [TransactionRecord(0, 1.0, 0, 1, 70.0)]
        metrics, runtime = run(records, triangle, WaterfillingScheme(num_paths=2))
        assert metrics.completed == 1
        assert runtime.network.channel(0, 2).settled_flow(0) > 0

    def test_prefers_higher_capacity_path(self, triangle):
        # Skew balances: direct 0-1 has 20 available, the 0-2-1 detour 50.
        lock(triangle, (0, 1), 30.0)
        records = [TransactionRecord(0, 1.0, 0, 1, 10.0)]
        metrics, runtime = run(records, triangle, WaterfillingScheme(num_paths=2))
        assert metrics.completed == 1
        # The unit went on the detour (more available capacity).
        assert runtime.network.channel(0, 2).settled_flow(0) == pytest.approx(10.0)

    def test_waterfilling_reduces_imbalance_relative_to_shortest_path(self):
        """The §5.3.1 motivation: waterfilling spreads load, keeping
        channels more balanced than always-shortest-path."""
        from repro.routing.shortest_path import ShortestPathScheme

        demands = {(0, 2): 40.0, (2, 0): 40.0}
        records = records_from_demand(demands, duration=20.0, mean_size=4.0, seed=0)
        wf_net = cycle_topology(4).build_network(default_capacity=100.0)
        sp_net = cycle_topology(4).build_network(default_capacity=100.0)
        wf_metrics, _ = run(list(records), wf_net, WaterfillingScheme(), end_time=30.0)
        sp_metrics, _ = run(list(records), sp_net, ShortestPathScheme(), end_time=30.0)
        assert wf_metrics.success_volume >= sp_metrics.success_volume - 0.05

    def test_queues_when_no_capacity(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 80.0)]
        metrics, _ = run(records, network, WaterfillingScheme())
        assert metrics.delivered_value == pytest.approx(50.0)

    def test_disconnected_fails(self):
        from repro.network.network import PaymentNetwork

        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_node(2)
        records = [TransactionRecord(0, 1.0, 0, 2, 10.0)]
        metrics, _ = run(records, network, WaterfillingScheme())
        assert metrics.failed == 1

    def test_fee_budget_veto_terminates(self):
        # Regression: a send vetoed for a *non-capacity* reason (the fee
        # budget) used to leave the path's availability estimate high and
        # spin the waterfilling loop forever.
        network = line_topology(3).build_network(default_capacity=1_000.0)
        for channel in network.channels():
            channel.fee_rate = 0.2  # 20% per hop >> any sane budget
        records = [TransactionRecord(0, 1.0, 0, 2, 100.0)]
        metrics, _ = run(
            records, network, WaterfillingScheme(), max_fee_fraction=0.01
        )
        assert metrics.completed == 0  # blocked by the budget, but finishes

    def test_invalid_num_paths(self):
        with pytest.raises(ValueError):
            WaterfillingScheme(num_paths=0)


class TestSpiderLP:
    def test_routes_circulation_demand_fully(self):
        """On a bidirectional demand the LP finds full flow and the scheme
        delivers it."""
        network = line_topology(3).build_network(default_capacity=200.0)
        demands = {(0, 2): 10.0, (2, 0): 10.0}
        records = records_from_demand(demands, duration=10.0, mean_size=5.0, seed=1)
        metrics, _ = run(list(records), network, SpiderLPScheme(), end_time=20.0)
        assert metrics.success_volume > 0.9

    def test_zero_flow_pairs_fail_immediately(self):
        """A pure one-way (DAG) demand gets zero LP flow under perfect
        balance; the paper notes those payments are never attempted."""
        network = line_topology(3).build_network(default_capacity=200.0)
        records = [TransactionRecord(i, 1.0 + i, 0, 2, 10.0) for i in range(5)]
        metrics, runtime = run(records, network, SpiderLPScheme(), end_time=20.0)
        assert metrics.completed == 0
        assert metrics.delivered_value == 0.0
        assert runtime.payments[0].attempts == 1  # failed at arrival

    def test_lp_volume_tracks_circulation_share(self):
        """Success volume approximates the circulation fraction of the
        demand (the Fig. 6 observation for Spider-LP)."""
        from repro.fluid.circulation import PaymentGraph, decompose_payment_graph
        from repro.workload.demand import estimate_demand_matrix, mixed_demand

        topology = isp_topology()
        network = topology.build_network(default_capacity=100_000.0)
        demands = mixed_demand(list(topology.nodes), 400.0, circulation_fraction=0.5, seed=3)
        records = records_from_demand(demands, duration=50.0, mean_size=10.0, seed=3)
        estimated = estimate_demand_matrix(records, duration=50.0)
        circulation_share = decompose_payment_graph(
            PaymentGraph(estimated), method="lp"
        ).circulation_fraction
        metrics, _ = run(list(records), network, SpiderLPScheme(), end_time=60.0)
        assert metrics.success_volume == pytest.approx(circulation_share, abs=0.15)

    def test_rebalancing_gamma_extension_unlocks_dag(self):
        """With the eqs. 6-11 objective and cheap rebalancing, one-way
        demand gets nonzero flow weights (funds are modelled as deposited
        on-chain out of band)."""
        network = line_topology(3).build_network(default_capacity=200.0)
        records = [TransactionRecord(i, 1.0 + i, 0, 2, 10.0) for i in range(3)]
        scheme = SpiderLPScheme(rebalancing_gamma=0.01)
        metrics, _ = run(records, network, scheme, end_time=20.0)
        assert metrics.delivered_value > 0.0


class TestSpiderPrimalDual:
    def test_completes_balanced_traffic(self):
        network = line_topology(3).build_network(default_capacity=400.0)
        demands = {(0, 2): 20.0, (2, 0): 20.0}
        records = records_from_demand(demands, duration=20.0, mean_size=5.0, seed=2)
        metrics, _ = run(
            list(records), network, SpiderPrimalDualScheme(), end_time=40.0
        )
        assert metrics.success_volume > 0.8

    def test_rates_adapt_over_time(self):
        network = cycle_topology(4).build_network(default_capacity=400.0)
        demands = {(0, 2): 30.0, (2, 0): 30.0}
        records = records_from_demand(demands, duration=20.0, mean_size=5.0, seed=4)
        scheme = SpiderPrimalDualScheme(update_interval=0.5)
        metrics, runtime = run(list(records), network, scheme, end_time=30.0)
        # The pair state must exist and have non-trivial rates.
        state = scheme._pairs[(0, 2)]
        assert state.rates.sum() > 0.0
        assert metrics.completed > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpiderPrimalDualScheme(num_paths=0)
        with pytest.raises(ValueError):
            SpiderPrimalDualScheme(update_interval=0.0)
        with pytest.raises(ValueError):
            SpiderPrimalDualScheme(demand_headroom=0.5)
