"""Tests for the from-scratch Edmonds–Karp max-flow and flow decomposition."""

from __future__ import annotations

import pytest

from repro.routing.max_flow import MaxFlowScheme, decompose_flow, edmonds_karp


class TestEdmondsKarp:
    def test_single_edge(self):
        value, flow = edmonds_karp({(0, 1): 5.0}, 0, 1)
        assert value == 5.0
        assert flow == {(0, 1): 5.0}

    def test_series_bottleneck(self):
        value, _ = edmonds_karp({(0, 1): 5.0, (1, 2): 3.0}, 0, 2)
        assert value == 3.0

    def test_parallel_paths_add(self):
        capacity = {(0, 1): 3.0, (1, 3): 3.0, (0, 2): 4.0, (2, 3): 4.0}
        value, _ = edmonds_karp(capacity, 0, 3)
        assert value == 7.0

    def test_classic_clrs_instance(self):
        """The textbook 6-node instance with max flow 23."""
        capacity = {
            ("s", "v1"): 16.0,
            ("s", "v2"): 13.0,
            ("v1", "v3"): 12.0,
            ("v2", "v1"): 4.0,
            ("v2", "v4"): 14.0,
            ("v3", "v2"): 9.0,
            ("v3", "t"): 20.0,
            ("v4", "v3"): 7.0,
            ("v4", "t"): 4.0,
        }
        value, flow = edmonds_karp(capacity, "s", "t")
        assert value == 23.0
        # Flow conservation at internal nodes.
        for node in ("v1", "v2", "v3", "v4"):
            inflow = sum(f for (u, v), f in flow.items() if v == node)
            outflow = sum(f for (u, v), f in flow.items() if u == node)
            assert inflow == pytest.approx(outflow)

    def test_requires_augmenting_through_residual(self):
        """Instance where the optimum needs flow cancellation via the
        residual graph (the reason Ford-Fulkerson uses backward edges)."""
        capacity = {
            (0, 1): 1.0,
            (0, 2): 1.0,
            (1, 2): 1.0,
            (1, 3): 1.0,
            (2, 3): 1.0,
        }
        value, _ = edmonds_karp(capacity, 0, 3)
        assert value == 2.0

    def test_disconnected_sink(self):
        value, flow = edmonds_karp({(0, 1): 5.0}, 0, 2)
        assert value == 0.0
        assert flow == {}

    def test_limit_stops_early(self):
        value, _ = edmonds_karp({(0, 1): 100.0}, 0, 1, limit=7.0)
        assert value == 7.0

    def test_bidirectional_capacities(self):
        # Payment channels expose both directions with separate balances.
        capacity = {(0, 1): 5.0, (1, 0): 3.0}
        value, flow = edmonds_karp(capacity, 0, 1)
        assert value == 5.0

    def test_flow_respects_capacities(self):
        capacity = {(0, 1): 2.5, (1, 2): 4.0, (0, 2): 1.0}
        _, flow = edmonds_karp(capacity, 0, 2)
        for edge, f in flow.items():
            assert f <= capacity[edge] + 1e-9


class TestDecomposeFlow:
    def test_paths_carry_full_value(self):
        capacity = {(0, 1): 3.0, (1, 3): 3.0, (0, 2): 4.0, (2, 3): 4.0}
        value, flow = edmonds_karp(capacity, 0, 3)
        paths = decompose_flow(flow, 0, 3)
        assert sum(v for _, v in paths) == pytest.approx(value)

    def test_paths_are_simple_and_start_end_correctly(self):
        capacity = {
            ("s", "a"): 2.0,
            ("a", "b"): 2.0,
            ("b", "t"): 2.0,
            ("s", "b"): 1.0,
            ("a", "t"): 1.0,
        }
        _, flow = edmonds_karp(capacity, "s", "t")
        for path, value in decompose_flow(flow, "s", "t"):
            assert path[0] == "s" and path[-1] == "t"
            assert len(set(path)) == len(path)
            assert value > 0

    def test_empty_flow(self):
        assert decompose_flow({}, 0, 1) == []


class TestMaxFlowScheme:
    def test_scheme_routes_across_parallel_paths(self, triangle):
        """70 > any single path (50) but within max-flow (100) on the
        triangle: direct 0-1 (50) plus 0-2-1 (50)."""
        from repro.engine.session import RuntimeConfig, SimulationSession
        from repro.workload.generator import TransactionRecord

        records = [TransactionRecord(0, 1.0, 0, 1, 70.0)]
        runtime = SimulationSession(
            triangle, records, MaxFlowScheme(), RuntimeConfig(end_time=10.0)
        )
        metrics = runtime.run()
        assert metrics.completed == 1
        triangle.check_invariants()

    def test_scheme_fails_beyond_max_flow(self, triangle):
        from repro.engine.session import RuntimeConfig, SimulationSession
        from repro.workload.generator import TransactionRecord

        records = [TransactionRecord(0, 1.0, 0, 1, 150.0)]
        runtime = SimulationSession(
            triangle, records, MaxFlowScheme(), RuntimeConfig(end_time=10.0)
        )
        metrics = runtime.run()
        assert metrics.failed == 1
        assert metrics.delivered_value == 0.0
