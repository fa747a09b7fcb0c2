"""Tests for demand matrix estimation and synthetic demand construction."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fluid.circulation import PaymentGraph, decompose_payment_graph
from repro.workload.demand import (
    circulation_demand,
    dag_demand,
    estimate_demand_matrix,
    mixed_demand,
    payment_graph_from_records,
    records_from_demand,
)
from repro.workload.generator import TransactionRecord


def record(txn_id, t, source, dest, amount):
    return TransactionRecord(txn_id, t, source, dest, amount)


class TestEstimation:
    def test_rates_are_value_per_second(self):
        records = [record(0, 1.0, 0, 1, 30.0), record(1, 10.0, 0, 1, 70.0)]
        demands = estimate_demand_matrix(records, duration=10.0)
        assert demands[(0, 1)] == pytest.approx(10.0)

    def test_duration_defaults_to_last_arrival(self):
        records = [record(0, 2.0, 0, 1, 10.0), record(1, 5.0, 1, 2, 20.0)]
        demands = estimate_demand_matrix(records)
        assert demands[(0, 1)] == pytest.approx(2.0)
        assert demands[(1, 2)] == pytest.approx(4.0)

    def test_empty_trace(self):
        assert estimate_demand_matrix([]) == {}

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigError):
            estimate_demand_matrix([record(0, 1.0, 0, 1, 1.0)], duration=0.0)

    @pytest.mark.parametrize("nodes", [3, 32, 400])
    def test_columns_sum_like_a_loop_over_the_records(self, nodes):
        """Same float sums, same first-appearance key order, as the
        per-record accumulation the column pass replaced."""
        from collections import defaultdict

        from repro.workload.generator import WorkloadConfig, generate_workload

        trace = generate_workload(
            range(nodes), WorkloadConfig(num_transactions=3000, arrival_rate=100.0, seed=9)
        )
        totals = defaultdict(float)
        for r in trace:
            totals[(r.source, r.dest)] += r.amount
        duration = max(r.arrival_time for r in trace)
        expected = {pair: value / duration for pair, value in totals.items()}
        estimated = estimate_demand_matrix(trace)
        assert list(estimated.items()) == list(expected.items())
        assert estimate_demand_matrix(list(trace)) == estimated

    def test_payment_graph_from_records(self):
        records = [record(0, 1.0, 0, 1, 10.0)]
        graph = payment_graph_from_records(records, duration=1.0)
        assert isinstance(graph, PaymentGraph)
        assert graph.rate(0, 1) == pytest.approx(10.0)


class TestCirculationDemand:
    def test_is_pure_circulation(self):
        demands = circulation_demand(range(12), 100.0, seed=0)
        decomposition = decompose_payment_graph(PaymentGraph(demands))
        assert decomposition.value == pytest.approx(100.0)
        assert decomposition.dag_value == pytest.approx(0.0)

    def test_total_rate_exact(self):
        demands = circulation_demand(range(12), 55.5, seed=1)
        assert sum(demands.values()) == pytest.approx(55.5)

    def test_deterministic(self):
        assert circulation_demand(range(10), 10.0, seed=4) == circulation_demand(
            range(10), 10.0, seed=4
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            circulation_demand(range(2), 10.0)
        with pytest.raises(ConfigError):
            circulation_demand(range(10), -1.0)
        with pytest.raises(ConfigError):
            circulation_demand(range(10), 1.0, cycle_length=(3, 50))


class TestDagDemand:
    def test_has_zero_circulation(self):
        demands = dag_demand(range(12), 100.0, num_pairs=8, seed=0)
        decomposition = decompose_payment_graph(PaymentGraph(demands))
        assert decomposition.value == pytest.approx(0.0)
        assert decomposition.dag_value == pytest.approx(100.0)

    def test_total_rate_exact(self):
        demands = dag_demand(range(12), 42.0, seed=2)
        assert sum(demands.values()) == pytest.approx(42.0)


class TestMixedDemand:
    def test_total_rate(self):
        demands = mixed_demand(range(15), 100.0, circulation_fraction=0.6, seed=0)
        assert sum(demands.values()) == pytest.approx(100.0)

    def test_extremes_match_pure_constructors(self):
        pure_circ = mixed_demand(range(15), 50.0, 1.0, seed=1)
        decomposition = decompose_payment_graph(PaymentGraph(pure_circ))
        assert decomposition.value == pytest.approx(50.0)
        pure_dag = mixed_demand(range(15), 50.0, 0.0, seed=1)
        decomposition = decompose_payment_graph(PaymentGraph(pure_dag))
        assert decomposition.value == pytest.approx(0.0)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            mixed_demand(range(10), 10.0, 1.5)


class TestRecordsFromDemand:
    def test_rates_recovered_in_expectation(self):
        demands = {(0, 1): 50.0, (2, 3): 25.0}
        records = records_from_demand(demands, duration=200.0, mean_size=5.0, seed=0)
        estimated = estimate_demand_matrix(records, duration=200.0)
        assert estimated[(0, 1)] == pytest.approx(50.0, rel=0.2)
        assert estimated[(2, 3)] == pytest.approx(25.0, rel=0.2)

    def test_records_sorted_and_renumbered(self):
        demands = {(0, 1): 10.0, (1, 2): 10.0}
        records = records_from_demand(demands, duration=50.0, mean_size=5.0, seed=1)
        assert [r.txn_id for r in records] == list(range(len(records)))
        times = [r.arrival_time for r in records]
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ConfigError):
            records_from_demand({}, duration=0.0, mean_size=1.0)
        with pytest.raises(ConfigError):
            records_from_demand({}, duration=1.0, mean_size=0.0)
