"""Tests for SilentWhispers-style landmark routing."""

from __future__ import annotations

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.routing.landmark import LandmarkScheme, contract_loops
from repro.topology.generators import star_topology
from repro.topology.isp import isp_topology
from repro.workload.generator import TransactionRecord


class TestContractLoops:
    def test_no_loop_is_identity(self):
        assert contract_loops((1, 2, 3)) == (1, 2, 3)

    def test_simple_loop_contracted(self):
        assert contract_loops((1, 2, 3, 2, 4)) == (1, 2, 4)

    def test_landmark_backtrack_contracted(self):
        # s -> l -> s -> d  (landmark path where s lies on the way back)
        assert contract_loops((1, 5, 1, 2)) == (1, 2)

    def test_nested_loops(self):
        assert contract_loops((1, 2, 3, 4, 3, 2, 5)) == (1, 2, 5)

    def test_single_node(self):
        assert contract_loops((7,)) == (7,)


class TestLandmarkScheme:
    def _run(self, records, network, **kwargs):
        scheme = LandmarkScheme(**kwargs)
        runtime = SimulationSession(network, records, scheme, RuntimeConfig(end_time=20.0))
        return runtime.run(), runtime

    def test_landmarks_are_highest_degree(self):
        network = isp_topology().build_network(default_capacity=1000.0)
        scheme = LandmarkScheme(num_landmarks=3)
        runtime = SimulationSession(network, [], scheme, RuntimeConfig(end_time=1.0))
        scheme.prepare(runtime)
        # The ISP core nodes (0-7) have the highest degree.
        assert all(landmark < 8 for landmark in scheme._landmarks)

    def test_star_routes_through_hub(self):
        network = star_topology(5).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 1, 2, 10.0)]
        metrics, _ = self._run(records, network, num_landmarks=1)
        assert metrics.completed == 1

    def test_payment_beyond_capacity_fails_atomically(self):
        network = star_topology(5).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 1, 2, 60.0)]  # bottleneck 50
        metrics, runtime = self._run(records, network, num_landmarks=1)
        assert metrics.failed == 1
        assert metrics.delivered_value == 0.0
        runtime.network.check_invariants()

    def test_multiple_landmarks_split_value(self):
        network = isp_topology().build_network(default_capacity=1000.0)
        records = [TransactionRecord(0, 1.0, 9, 21, 400.0)]
        metrics, runtime = self._run(records, network, num_landmarks=3)
        assert metrics.completed == 1
        # The value was split across more than one landmark path.
        num_settled = runtime.network.state_store.num_settled
        used = [
            channel
            for channel in runtime.network.channels()
            if num_settled[channel.channel_id] > 0
        ]
        assert len(used) > 3  # one 3-hop path alone would touch 3 channels

    def test_shared_landmark_edge_limits_atomic_success(self):
        """Landmark paths often share the landmark's access edges; a payment
        exceeding that shared capacity fails even though the naive per-path
        probe sum suggests otherwise."""
        network = isp_topology().build_network(default_capacity=1000.0)
        records = [TransactionRecord(0, 1.0, 9, 21, 800.0)]
        metrics, _ = self._run(records, network, num_landmarks=3)
        assert metrics.failed == 1

    def test_paths_reach_destination(self):
        network = isp_topology().build_network(default_capacity=1000.0)
        scheme = LandmarkScheme(num_landmarks=3)
        runtime = SimulationSession(network, [], scheme, RuntimeConfig(end_time=1.0))
        scheme.prepare(runtime)
        for source, dest in [(8, 20), (10, 31), (9, 15)]:
            for path in scheme.landmark_paths(source, dest):
                assert path[0] == source
                assert path[-1] == dest
                assert len(set(path)) == len(path)

    def test_invalid_landmark_count(self):
        with pytest.raises(ValueError):
            LandmarkScheme(num_landmarks=0)
