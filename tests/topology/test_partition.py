"""Graph partitioner: coverage, balance, determinism, cut-edge bookkeeping."""

from __future__ import annotations

import pytest

from repro.topology import (
    GraphPartition,
    grid_topology,
    partition_adjacency,
    ripple_topology,
)


def _connected(adjacency, nodes):
    """Whether ``nodes`` induce a connected subgraph of ``adjacency``."""
    if not nodes:
        return True
    allowed = set(nodes)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if neighbour in allowed and neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen == allowed


class TestPartitionAdjacency:
    def test_every_node_assigned_exactly_once(self):
        topology = grid_topology(8, 8)
        adjacency = topology.adjacency()
        partition = partition_adjacency(adjacency, 4)
        covered = [node for segment in partition.segments for node in segment]
        assert sorted(covered) == sorted(adjacency)
        assert len(covered) == len(set(covered))

    def test_segments_are_balanced_and_contiguous_on_grid(self):
        topology = grid_topology(10, 10)
        adjacency = topology.adjacency()
        partition = partition_adjacency(adjacency, 4)
        sizes = partition.sizes()
        assert sum(sizes) == 100
        # Round-robin growth keeps regions roughly balanced; a region can
        # stall once boxed in, so the bound is a ratio, not one node.
        assert max(sizes) <= 1.5 * min(sizes)
        for segment in partition.segments:
            assert _connected(adjacency, list(segment))

    def test_deterministic_per_seed(self):
        adjacency = grid_topology(6, 6).adjacency()
        a = partition_adjacency(adjacency, 3, seed=5)
        b = partition_adjacency(adjacency, 3, seed=5)
        assert a.segments == b.segments
        assert a.cut_edges == b.cut_edges
        c = partition_adjacency(adjacency, 3, seed=6)
        assert c.seed == 6  # seeds are recorded on the artifact

    def test_cut_edges_are_exactly_the_cross_segment_channels(self):
        adjacency = grid_topology(6, 6).adjacency()
        partition = partition_adjacency(adjacency, 3)
        expected = sorted(
            (u, v)
            for u in adjacency
            for v in adjacency[u]
            if u < v and partition.segment_of(u) != partition.segment_of(v)
        )
        assert list(partition.cut_edges) == expected
        for u, v in partition.cut_edges:
            assert u < v

    def test_more_segments_than_nodes_clamps(self):
        adjacency = {0: [1], 1: [0]}
        partition = partition_adjacency(adjacency, 8)
        assert sum(partition.sizes()) == 2
        assert partition.num_segments <= 8

    def test_disconnected_components_land_in_smallest_segment(self):
        adjacency = {0: [1], 1: [0], 2: [3], 3: [2], 4: []}
        partition = partition_adjacency(adjacency, 2)
        covered = sorted(n for seg in partition.segments for n in seg)
        assert covered == [0, 1, 2, 3, 4]

    def test_empty_adjacency(self):
        partition = partition_adjacency({}, 3)
        assert partition.sizes() == [0, 0, 0]
        assert partition.cut_edges == ()

    def test_invalid_segment_count(self):
        with pytest.raises(ValueError):
            partition_adjacency({0: []}, 0)


class TestPartitionQueries:
    def test_is_internal_and_segment_of(self):
        partition = GraphPartition(
            segments=((0, 1, 2), (3, 4)), cut_edges=((2, 3),)
        )
        assert partition.segment_of(1) == 0
        assert partition.segment_of(4) == 1
        assert partition.is_internal((0, 1, 2))
        assert not partition.is_internal((2, 3))
        assert partition.is_internal(())

    def test_cut_edges_between(self):
        partition = GraphPartition(
            segments=((0, 1), (2, 3), (4,)),
            cut_edges=((1, 2), (3, 4), (0, 4)),
        )
        assert partition.cut_edges_between(0, 1) == [(1, 2)]
        assert partition.cut_edges_between(1, 2) == [(3, 4)]
        assert partition.cut_edges_between(0, 2) == [(0, 4)]


class TestNetworkPartition:
    def test_ripple_partition_covers_network(self):
        topology = ripple_topology("small")
        partition = partition_adjacency(topology.adjacency(), 4)
        assert sum(partition.sizes()) == len(list(topology.nodes))
        assert partition.cut_edges  # a real graph has cross-segment channels
