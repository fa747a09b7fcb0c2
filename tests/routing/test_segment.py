"""Tests for the segment-aware source-routing scheme.

``SegmentRoutingScheme`` partitions the channel graph, keeps
intra-segment payments on paths inside their segment and stitches
cross-segment payments over cut channels, falling back to the global
candidate set when no stitched trail exists.  These tests pin each of
those steps on small hand-checkable graphs, the route invariants over
every pair of a lattice, and byte-identical replay of a seeded run.
"""

from __future__ import annotations

import itertools

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.report import metrics_to_json
from repro.network.network import PaymentNetwork
from repro.routing.registry import make_scheme
from repro.routing.segment import SegmentRoutingScheme
from repro.topology import GraphPartition, grid_topology, line_topology
from repro.topology import partition_adjacency
from repro.workload.generator import TransactionRecord


def _prepared(network, **params):
    """A scheme bound to ``network`` through a (not yet run) session."""
    scheme = SegmentRoutingScheme(**params)
    session = SimulationSession(
        network, [], scheme, RuntimeConfig(end_time=10.0)
    )
    session.prepare()
    return scheme, session


def _with_partition(scheme, partition):
    """Swap in a hand-built partition and drop the memoised routes."""
    scheme.partition = partition
    scheme._routes = {}
    scheme._legs = {}
    return scheme


def _assert_trail(route, source, dest, adjacency):
    assert route[0] == source and route[-1] == dest
    assert len(set(route)) == len(route), route
    for u, v in zip(route, route[1:]):
        assert v in adjacency[u], (route, u, v)


class TestConstruction:
    @pytest.mark.parametrize("field", ["num_segments", "num_paths"])
    def test_non_positive_sizes_are_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SegmentRoutingScheme(**{field: 0})

    def test_registry_builds_the_scheme_with_params(self):
        scheme = make_scheme("segment-routing", num_segments=3, partition_seed=7)
        assert isinstance(scheme, SegmentRoutingScheme)
        assert (scheme.num_segments, scheme.partition_seed) == (3, 7)
        assert scheme.atomic is False

    def test_prepare_partitions_the_channel_graph(self):
        topology = grid_topology(6, 6)
        scheme, _ = _prepared(
            topology.build_network(default_capacity=100.0),
            num_segments=3,
            partition_seed=2,
        )
        expected = partition_adjacency(topology.adjacency(), 3, seed=2)
        assert scheme.partition.segments == expected.segments
        assert scheme.partition.cut_edges == expected.cut_edges
        assert sum(scheme.partition.sizes()) == 36


class TestRoutes:
    @pytest.mark.parametrize("num_segments", [1, 2, 3, 4])
    def test_every_route_is_a_trail_over_real_channels(self, num_segments):
        topology = grid_topology(5, 5)
        adjacency = topology.adjacency()
        scheme, _ = _prepared(
            topology.build_network(default_capacity=100.0),
            num_segments=num_segments,
        )
        for source, dest in itertools.permutations(sorted(adjacency), 2):
            route = scheme._route(source, dest)
            assert route is not None
            _assert_trail(route, source, dest, adjacency)

    def test_intra_segment_routes_use_the_first_internal_candidate(self):
        topology = grid_topology(6, 6)
        scheme, _ = _prepared(
            topology.build_network(default_capacity=100.0), num_segments=3
        )
        partition = scheme.partition
        checked = 0
        for segment in partition.segments:
            for source, dest in itertools.permutations(segment, 2):
                internal = [
                    tuple(path)
                    for path in scheme.path_cache.paths(source, dest)
                    if partition.is_internal(path)
                ]
                if internal:
                    assert scheme._route(source, dest) == internal[0]
                    checked += 1
        assert checked > 0

    def test_one_segment_routes_on_the_first_candidate(self):
        topology = grid_topology(4, 4)
        scheme, _ = _prepared(
            topology.build_network(default_capacity=100.0), num_segments=1
        )
        for source, dest in itertools.permutations(range(16), 2):
            first = tuple(scheme.path_cache.paths(source, dest)[0])
            assert scheme._route(source, dest) == first

    def test_stitched_routes_follow_the_segment_chain_over_cut_channels(self):
        topology = grid_topology(6, 6)
        adjacency = topology.adjacency()
        scheme, _ = _prepared(
            topology.build_network(default_capacity=100.0), num_segments=4
        )
        partition = scheme.partition
        cut = set(partition.cut_edges)
        stitched = 0
        for source, dest in itertools.permutations(range(36), 2):
            route = scheme._stitch(source, dest)
            if route is None:
                continue
            stitched += 1
            _assert_trail(route, source, dest, adjacency)
            segments = [partition.segment_of(node) for node in route]
            chain = [seg for seg, _ in itertools.groupby(segments)]
            assert tuple(chain) == scheme._segment_route(chain[0], chain[-1])
            for u, v in zip(route, route[1:]):
                if partition.segment_of(u) != partition.segment_of(v):
                    assert (min(u, v), max(u, v)) in cut
        assert stitched > 0

    def test_routes_are_memoised_per_pair(self):
        scheme, _ = _prepared(
            grid_topology(4, 4).build_network(default_capacity=100.0),
            num_segments=2,
        )
        route = scheme._route(0, 15)
        assert scheme._routes[(0, 15)] is route
        assert scheme._route(0, 15) is route


class TestStitchingPieces:
    def _line(self, n=6):
        scheme, _ = _prepared(line_topology(n).build_network(default_capacity=100.0))
        return scheme

    def test_segment_route_is_a_shortest_chain_of_segments(self):
        scheme = _with_partition(
            self._line(),
            GraphPartition(
                segments=((0, 1), (2, 3), (4, 5)), cut_edges=((1, 2), (3, 4))
            ),
        )
        assert scheme._segment_route(1, 1) == (1,)
        assert scheme._segment_route(0, 2) == (0, 1, 2)
        assert scheme._segment_route(2, 0) == (2, 1, 0)

    def test_segment_route_between_unlinked_segments_is_none(self):
        scheme = _with_partition(
            self._line(),
            GraphPartition(segments=((0, 1, 2), (3, 4, 5)), cut_edges=()),
        )
        assert scheme._segment_route(0, 1) is None
        assert scheme._stitch(0, 5) is None

    def test_leg_never_leaves_its_segment(self):
        scheme = _with_partition(
            self._line(3),
            GraphPartition(segments=((0, 2), (1,)), cut_edges=((0, 1), (1, 2))),
        )
        assert scheme._leg(0, 0, 0) == (0,)
        assert scheme._leg(0, 2, 0) is None  # only route crosses segment 1

    def test_stitch_crosses_each_cut_channel_once(self):
        scheme = _with_partition(
            self._line(),
            GraphPartition(
                segments=((0, 1), (2, 3), (4, 5)), cut_edges=((1, 2), (3, 4))
            ),
        )
        assert scheme._stitch(0, 5) == (0, 1, 2, 3, 4, 5)
        assert scheme._stitch(5, 0) == (5, 4, 3, 2, 1, 0)

    def test_unstitchable_pair_falls_back_to_the_global_candidate(self):
        # Segment 0 = {0, 2} is not connected inside itself, so 0 -> 2 has
        # neither an internal candidate nor a stitched trail.
        scheme = _with_partition(
            self._line(4),
            GraphPartition(
                segments=((0, 2), (1, 3)),
                cut_edges=((0, 1), (1, 2), (2, 3)),
            ),
        )
        assert scheme._stitch(0, 2) is None
        assert scheme._route(0, 2) == (0, 1, 2)


class TestRuns:
    def test_local_payment_settles_on_its_segment_path(self):
        topology = line_topology(6)
        network = topology.build_network(default_capacity=100.0)
        scheme = SegmentRoutingScheme(num_segments=2)
        records = [TransactionRecord(0, 1.0, 0, 1, 10.0)]
        session = SimulationSession(
            network, records, scheme, RuntimeConfig(end_time=30.0)
        )
        metrics = session.run()
        assert metrics.completed == 1
        assert scheme.partition.segment_of(0) == scheme.partition.segment_of(1)
        assert network.channel(0, 1).settled_flow(0) == 10.0
        assert network.channel(1, 2).settled_flow(1) == 0.0

    def test_disconnected_pair_fails(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_node(2)
        scheme = SegmentRoutingScheme(num_segments=2)
        records = [TransactionRecord(0, 1.0, 0, 2, 10.0)]
        session = SimulationSession(
            network, records, scheme, RuntimeConfig(end_time=30.0)
        )
        metrics = session.run()
        assert metrics.completed == 0
        assert metrics.delivered_value == 0.0

    def test_same_seed_runs_are_byte_identical(self):
        config = ExperimentConfig(
            scheme="segment-routing",
            scheme_params={"num_segments": 2},
            topology="ripple-small",
            capacity=400.0,
            num_transactions=220,
            arrival_rate=110.0,
            seed=3,
        )
        first = metrics_to_json(run_experiment(config))
        second = metrics_to_json(run_experiment(config))
        assert first.encode() == second.encode()
