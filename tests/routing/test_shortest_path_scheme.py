"""Tests for the shortest-path packet-switched baseline."""

from __future__ import annotations

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.routing.shortest_path import ShortestPathScheme
from repro.topology.generators import cycle_topology, line_topology
from repro.workload.generator import TransactionRecord


def run(records, network, **config_kwargs):
    runtime = SimulationSession(
        network,
        records,
        ShortestPathScheme(),
        RuntimeConfig(end_time=30.0, **config_kwargs),
    )
    return runtime.run(), runtime


class TestShortestPathScheme:
    def test_uses_only_the_shortest_path(self):
        # On a 6-cycle, 0 -> 2 goes 0-1-2; the long way is never used.
        network = cycle_topology(6).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 10.0)]
        metrics, runtime = run(records, network)
        assert metrics.completed == 1
        assert runtime.network.channel(3, 4).settled_flow(3) == 0.0
        assert runtime.network.channel(0, 1).settled_flow(0) == 10.0

    def test_non_atomic_partial_delivery(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 80.0)]
        metrics, _ = run(records, network)
        # Bottleneck 50: partial delivery counts toward success volume.
        assert metrics.completed == 0
        assert metrics.delivered_value == pytest.approx(50.0)

    def test_queued_remainder_retries_after_reverse_flow(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        records = [
            TransactionRecord(0, 1.0, 0, 2, 80.0),
            TransactionRecord(1, 2.0, 2, 0, 40.0),
        ]
        metrics, runtime = run(records, network)
        # The reverse payment replenishes 0->2 capacity; the queued 30
        # eventually completes the big payment.
        assert runtime.payments[0].is_complete
        assert metrics.completed == 2

    def test_disconnected_pair_fails(self):
        from repro.network.network import PaymentNetwork

        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_node(2)
        records = [TransactionRecord(0, 1.0, 0, 2, 10.0)]
        metrics, _ = run(records, network)
        assert metrics.failed == 1
