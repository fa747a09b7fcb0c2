"""Tests for SpeedyMurmurs-style embedding routing."""

from __future__ import annotations

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.routing.embedding import PrefixEmbedding, SpeedyMurmursScheme, tree_distance
from repro.topology.generators import grid_topology, line_topology, star_topology
from repro.topology.isp import isp_topology
from repro.workload.generator import TransactionRecord
from tests.path_helpers import lock


class TestTreeDistance:
    def test_identical_coordinates(self):
        assert tree_distance((1, 2), (1, 2)) == 0

    def test_parent_child(self):
        assert tree_distance((1,), (1, 2)) == 1

    def test_siblings(self):
        assert tree_distance((1, 2), (1, 3)) == 2

    def test_root_to_leaf(self):
        assert tree_distance((), (5, 6, 7)) == 3

    def test_disjoint_subtrees(self):
        assert tree_distance((1, 2), (3, 4)) == 4


class TestPrefixEmbedding:
    def test_root_has_empty_coordinate(self):
        adjacency = line_topology(4).adjacency()
        embedding = PrefixEmbedding(adjacency, root=0, seed=0)
        assert embedding.coordinate(0) == ()

    def test_coordinate_depth_equals_tree_depth(self):
        adjacency = line_topology(4).adjacency()
        embedding = PrefixEmbedding(adjacency, root=0, seed=0)
        for node in range(4):
            assert len(embedding.coordinate(node)) == node

    def test_distance_on_line_matches_hops(self):
        adjacency = line_topology(6).adjacency()
        embedding = PrefixEmbedding(adjacency, root=0, seed=0)
        assert embedding.distance(1, 4) == 3

    def test_grid_embedding_covers_all_nodes(self):
        adjacency = grid_topology(4, 4).adjacency()
        embedding = PrefixEmbedding(adjacency, root=0, seed=1)
        for node in range(16):
            embedding.coordinate(node)  # must not raise

    def test_covers_only_the_root_component(self):
        adjacency = {0: [1], 1: [0], 2: [3], 3: [2]}
        embedding = PrefixEmbedding(adjacency, root=0, seed=0)
        assert embedding.covers(0) and embedding.covers(1)
        assert not embedding.covers(2) and not embedding.covers(3)


class TestSpeedyMurmursScheme:
    def _run(self, records, network, **kwargs):
        scheme = SpeedyMurmursScheme(**kwargs)
        runtime = SimulationSession(network, records, scheme, RuntimeConfig(end_time=20.0))
        return runtime.run(), runtime

    def test_simple_delivery(self):
        network = star_topology(5).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 1, 2, 10.0)]
        metrics, _ = self._run(records, network, num_trees=1)
        assert metrics.completed == 1

    def test_multi_tree_split(self):
        network = isp_topology().build_network(default_capacity=1000.0)
        records = [TransactionRecord(0, 1.0, 8, 20, 300.0)]
        metrics, _ = self._run(records, network, num_trees=3)
        assert metrics.completed == 1

    def test_share_failure_fails_whole_payment(self):
        # Line 0-1-2 with capacity 100/2=50 per direction: a 120 payment's
        # shares (40 each over 3 trees on the same physical path) exceed
        # the 50 available -> atomic failure, nothing delivered.
        network = line_topology(3).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 120.0)]
        metrics, runtime = self._run(records, network, num_trees=3)
        assert metrics.failed == 1
        assert metrics.delivered_value == 0.0
        runtime.network.check_invariants()

    def test_greedy_routing_respects_balances(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        # Drain 0->1 so greedy routing dead-ends at the source.
        lock(network, (0, 1), 50.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 10.0)]
        metrics, _ = self._run(records, network, num_trees=1)
        assert metrics.failed == 1

    def test_deterministic_for_seed(self):
        network1 = isp_topology().build_network(default_capacity=500.0)
        network2 = isp_topology().build_network(default_capacity=500.0)
        records = [
            TransactionRecord(i, 1.0 + 0.1 * i, 8 + i, 20 + i, 50.0) for i in range(5)
        ]
        m1, _ = self._run(list(records), network1, num_trees=3, seed=7)
        m2, _ = self._run(list(records), network2, num_trees=3, seed=7)
        assert m1.completed == m2.completed
        assert m1.delivered_value == m2.delivered_value

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpeedyMurmursScheme(num_trees=0)
        with pytest.raises(ValueError):
            SpeedyMurmursScheme(max_hops=1)
