"""Tests for the payment network state machine."""

from __future__ import annotations

import math

import pytest

from repro.errors import ChannelError, InsufficientFundsError, TopologyError
from repro.network.network import PaymentNetwork, canonical_edge
from tests.path_helpers import lock, refund, settle


def bottleneck(network: PaymentNetwork, path) -> float:
    """``path``'s bottleneck, probed on its compiled form."""
    table = network.path_table
    return table.bottleneck(table.compile(path))


class TestCanonicalEdge:
    def test_integers_sort_numerically(self):
        assert canonical_edge(10, 2) == (2, 10)
        assert canonical_edge(2, 10) == (2, 10)

    def test_strings_sort_lexicographically(self):
        assert canonical_edge("b", "a") == ("a", "b")

    def test_mixed_types_fall_back_to_repr(self):
        assert canonical_edge("a", 1) == canonical_edge(1, "a")


class TestConstruction:
    def test_add_channel_creates_nodes(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 10.0)
        assert network.has_node(0) and network.has_node(1)
        assert network.num_nodes == 2
        assert network.num_channels == 1

    def test_duplicate_channel_rejected(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 10.0)
        with pytest.raises(TopologyError):
            network.add_channel(1, 0, 10.0)

    def test_add_node_is_idempotent(self):
        network = PaymentNetwork()
        network.add_node(3)
        network.add_node(3)
        assert network.num_nodes == 1
        assert list(network.nodes()) == [3]

    def test_neighbors_and_degree(self, triangle):
        assert set(triangle.neighbors(0)) == {1, 2}
        assert triangle.degree(1) == 2

    def test_unknown_node_raises(self, triangle):
        with pytest.raises(TopologyError):
            list(triangle.neighbors(99))

    def test_channel_lookup_either_order(self, triangle):
        assert triangle.channel(0, 1) is triangle.channel(1, 0)
        with pytest.raises(TopologyError):
            triangle.channel(0, 99)

    def test_balance_split_parameter(self):
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 10.0, balance_u=7.0)
        assert channel.balance(0) == 7.0
        assert channel.balance(1) == 3.0


class TestAvailability:
    def test_available_is_directional(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 10.0, balance_u=7.0)
        assert network.available(0, 1) == 7.0
        assert network.available(1, 0) == 3.0

    def test_bottleneck_is_min_along_path(self, line3):
        # line 0-1-2, each channel 100 split 50/50
        assert bottleneck(line3, [0, 1, 2]) == 50.0
        lock(line3, (0, 1), 30.0)
        assert bottleneck(line3, [0, 1, 2]) == 20.0

    def test_bottleneck_of_single_node_is_infinite(self, line3):
        assert bottleneck(line3, [0]) == math.inf

    def test_direction_lookup(self, line3):
        d = line3.direction_id(2, 1)
        channel = line3.channel(1, 2)
        assert (d >> 1, d & 1) == (channel.channel_id, channel.side(2))
        with pytest.raises(TopologyError):
            line3.direction_id(0, 2)

    def test_path_validation(self, line3):
        with pytest.raises(ChannelError):
            bottleneck(line3, [])
        with pytest.raises(TopologyError):
            bottleneck(line3, [0, 2])  # no channel 0-2
        with pytest.raises(TopologyError):
            bottleneck(line3, [0, 9])


class TestPathLocking:
    def test_lock_path_locks_every_hop(self, line3):
        htlcs = lock(line3, [0, 1, 2], 10.0)
        assert htlcs.amounts == [10.0, 10.0]
        assert line3.available(0, 1) == 40.0
        assert line3.available(1, 2) == 40.0
        line3.check_invariants()

    def test_settle_path_credits_downstream(self, line3):
        settle(line3, lock(line3, [0, 1, 2], 10.0))
        assert line3.available(1, 0) == 60.0
        assert line3.available(2, 1) == 60.0
        # Relay node 1 is net flat: paid 10 downstream, received 10 upstream.
        channel01 = line3.channel(0, 1)
        channel12 = line3.channel(1, 2)
        assert channel01.balance(1) + channel12.balance(1) == pytest.approx(100.0)
        line3.check_invariants()

    def test_refund_path_restores_balances(self, line3):
        before = line3.balance_snapshot()
        refund(line3, lock(line3, [0, 1, 2], 10.0))
        assert line3.balance_snapshot() == before
        line3.check_invariants()

    def test_partial_lock_rolls_back_atomically(self, line3):
        # Drain channel 1->2 so the second hop fails.
        lock(line3, (1, 2), 50.0)
        before_first_hop = line3.available(0, 1)
        with pytest.raises(InsufficientFundsError):
            lock(line3, [0, 1, 2], 10.0)
        assert line3.available(0, 1) == before_first_hop
        line3.check_invariants()

    def test_string_ids_lock_and_settle_across_two_hops(self):
        network = PaymentNetwork()
        network.add_channel("alice", "bob", 10.0)
        network.add_channel("bob", "carol", 10.0)
        path = ("alice", "bob", "carol")
        held = lock(network, path, 2.0)
        assert network.total_inflight() == 4.0
        settle(network, held)
        assert network.available("carol", "bob") == 7.0
        assert network.available("bob", "alice") == 7.0
        assert network.total_inflight() == 0.0
        network.check_invariants()

    def test_lock_within_tolerance_clamps_to_the_balance(self, line3):
        held = lock(line3, [0, 1, 2], 50.0 + 5e-10)
        assert held.amounts == [50.0, 50.0]
        assert line3.available(0, 1) == 0.0
        assert line3.available(1, 2) == 0.0
        line3.check_invariants()

    def test_lock_beyond_tolerance_raises(self, line3):
        before = line3.balance_snapshot()
        with pytest.raises(InsufficientFundsError):
            lock(line3, [0, 1, 2], 50.0 + 2e-9)
        assert line3.balance_snapshot() == before

    def test_lock_path_rejects_single_node(self, line3):
        with pytest.raises(ChannelError):
            lock(line3, [0], 1.0)

    def test_lock_path_rejects_revisiting_paths(self, triangle):
        with pytest.raises(ChannelError):
            lock(triangle, [0, 1, 0], 1.0)


class TestAggregates:
    def test_total_funds(self, triangle):
        assert triangle.total_funds() == 300.0

    def test_total_inflight_tracks_locks(self, line3):
        assert line3.total_inflight() == 0.0
        lock(line3, [0, 1, 2], 10.0)
        assert line3.total_inflight() == 20.0  # 10 on each hop

    def test_funds_conserved_after_traffic(self, triangle):
        total_before = triangle.total_funds()
        for _ in range(5):
            settle(triangle, lock(triangle, [0, 1, 2], 5.0))
            refund(triangle, lock(triangle, [2, 0], 3.0))
        assert triangle.total_funds() == total_before
        triangle.check_invariants()
