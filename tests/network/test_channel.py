"""Tests for the payment channel view: construction, balances, flow
accounting and deposits.  Funds move the way the engine moves them,
through compiled-path locks and the store's per-hop resolutions."""

from __future__ import annotations

import math

import pytest

from repro.errors import ChannelError, InsufficientFundsError
from repro.network.channel import PaymentChannel
from repro.network.network import PaymentNetwork
from tests import path_helpers
from tests.path_helpers import lock, refund, settle


@pytest.fixture
def network() -> PaymentNetwork:
    """Two-node network, one Alice–Bob channel: 7 total, Alice holds 3
    (the paper's Fig. 1)."""
    network = PaymentNetwork()
    network.add_channel("alice", "bob", 7.0, balance_u=3.0)
    return network


@pytest.fixture
def channel(network) -> PaymentChannel:
    return network.channel("alice", "bob")


def pay(network: PaymentNetwork, sender: str, receiver: str, amount: float) -> None:
    """Lock ``amount`` from ``sender`` to ``receiver`` and settle it."""
    path_helpers.pay(network, (sender, receiver), amount)


class TestConstruction:
    def test_default_split_is_even(self):
        channel = PaymentChannel(0, 1, capacity=100.0)
        assert channel.balance(0) == 50.0
        assert channel.balance(1) == 50.0

    def test_explicit_split(self, channel):
        assert channel.balance("alice") == 3.0
        assert channel.balance("bob") == 4.0

    def test_self_channel_rejected(self):
        with pytest.raises(ChannelError):
            PaymentChannel("a", "a", capacity=1.0)

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ChannelError):
            PaymentChannel("a", "b", capacity=0.0)
        with pytest.raises(ChannelError):
            PaymentChannel("a", "b", capacity=-5.0)

    def test_balance_outside_capacity_rejected(self):
        with pytest.raises(ChannelError):
            PaymentChannel("a", "b", capacity=10.0, balance_a=11.0)
        with pytest.raises(ChannelError):
            PaymentChannel("a", "b", capacity=10.0, balance_a=-1.0)

    def test_other_endpoint(self, channel):
        assert channel.other("alice") == "bob"
        assert channel.other("bob") == "alice"
        with pytest.raises(ChannelError):
            channel.other("carol")

    def test_non_endpoint_queries_rejected(self, channel):
        with pytest.raises(ChannelError):
            channel.balance("carol")

    @pytest.mark.parametrize("capacity", [math.inf, math.nan])
    def test_non_finite_capacity_rejected(self, capacity):
        with pytest.raises(ChannelError):
            PaymentChannel("a", "b", capacity=capacity)

    @pytest.mark.parametrize("fee", ["base_fee", "fee_rate"])
    def test_negative_fees_rejected(self, fee):
        with pytest.raises(ChannelError, match="fees must be non-negative"):
            PaymentChannel("a", "b", capacity=10.0, **{fee: -0.1})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_base_fee_rejected(self, value):
        with pytest.raises(ChannelError, match="fees must be non-negative and finite"):
            PaymentChannel("a", "b", capacity=10.0, base_fee=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fee_rate_rejected(self, value):
        with pytest.raises(ChannelError, match="fees must be non-negative and finite"):
            PaymentChannel("a", "b", capacity=10.0, fee_rate=value)

    def test_endpoints_map_to_store_columns(self, network, channel):
        assert channel.endpoints == ("alice", "bob")
        store = network.state_store
        for node, side in (("alice", 0), ("bob", 1)):
            assert channel.side(node) == side
            assert store.balance[channel.channel_id, side] == channel.balance(node)
        assert network.direction("bob", "alice")[1:] == (channel.channel_id, 1)

    @pytest.mark.parametrize(
        "query",
        [
            lambda c: c.inflight("carol"),
            lambda c: c.available("carol"),
            lambda c: c.side("carol"),
            lambda c: c.settled_flow("carol"),
            lambda c: c.attempted_flow("carol"),
            lambda c: c.deposit("carol", 1.0),
        ],
        ids=[
            "inflight",
            "available",
            "side",
            "settled_flow",
            "attempted_flow",
            "deposit",
        ],
    )
    def test_every_per_node_query_rejects_a_non_endpoint(self, channel, query):
        with pytest.raises(ChannelError, match="not an endpoint"):
            query(channel)
        assert channel.capacity == 7.0


class TestFig1Scenario:
    """The exact bidirectional sequence of the paper's Fig. 1."""

    def test_bob_pays_one_then_alice_pays_two(self, network, channel):
        # Bob -> Alice: 1 token.
        pay(network, "bob", "alice", 1.0)
        assert channel.balance("alice") == 4.0
        assert channel.balance("bob") == 3.0
        # Alice -> Bob: 2 tokens.
        pay(network, "alice", "bob", 2.0)
        assert channel.balance("alice") == 2.0
        assert channel.balance("bob") == 5.0
        channel.check_invariant()


class TestLocking:
    def test_lock_moves_funds_to_inflight(self, network, channel):
        lock(network, ("alice", "bob"), 2.0)
        assert channel.balance("alice") == 1.0
        assert channel.inflight("alice") == 2.0
        channel.check_invariant()

    def test_lock_beyond_balance_raises(self, network):
        with pytest.raises(InsufficientFundsError):
            lock(network, ("alice", "bob"), 3.5)

    def test_inflight_funds_are_unspendable(self, network):
        lock(network, ("alice", "bob"), 3.0)
        with pytest.raises(InsufficientFundsError):
            lock(network, ("alice", "bob"), 0.5)

    def test_non_positive_lock_raises(self, network):
        with pytest.raises(ChannelError):
            lock(network, ("alice", "bob"), 0.0)
        with pytest.raises(ChannelError):
            lock(network, ("alice", "bob"), -1.0)

    @pytest.mark.parametrize("amount", [math.inf, math.nan])
    def test_non_finite_lock_raises_and_writes_nothing(self, network, channel, amount):
        with pytest.raises(ChannelError, match="positive and finite"):
            lock(network, ("alice", "bob"), amount)
        assert channel.balance("alice") == 3.0
        assert channel.inflight("alice") == 0.0
        assert channel.attempted_flow("alice") == 0.0

    def test_per_hop_amount_count_must_match_the_path(self, network, channel):
        with pytest.raises(ChannelError, match="1 hops but 2 amounts"):
            lock(network, ("alice", "bob"), 1.0, [1.0, 1.0])
        assert channel.inflight("alice") == 0.0

    def test_frozen_channel_offers_nothing_either_way(self, network, channel):
        channel.freeze()
        assert channel.available("alice") == 0.0
        assert channel.available("bob") == 0.0
        # Freezing moves no funds: the balances are still there.
        assert (channel.balance("alice"), channel.balance("bob")) == (3.0, 4.0)
        with pytest.raises(InsufficientFundsError, match="frozen"):
            lock(network, ("bob", "alice"), 1.0)
        channel.unfreeze()
        assert channel.available("bob") == 4.0

    def test_settle_credits_counterparty(self, network, channel):
        pay(network, "alice", "bob", 2.0)
        assert channel.balance("bob") == 6.0
        assert channel.inflight("alice") == 0.0
        assert network.state_store.num_settled[channel.channel_id] == 1

    def test_refund_returns_to_sender(self, network, channel):
        refund(network, lock(network, ("alice", "bob"), 2.0))
        assert channel.balance("alice") == 3.0
        assert channel.balance("bob") == 4.0
        assert network.state_store.num_refunded[channel.channel_id] == 1

    def test_multiple_concurrent_locks(self, network, channel):
        first = lock(network, ("alice", "bob"), 1.0)
        second = lock(network, ("alice", "bob"), 1.5)
        third = lock(network, ("bob", "alice"), 2.0)
        assert channel.inflight("alice") == 2.5
        assert channel.inflight("bob") == 2.0
        settle(network, first)
        refund(network, second)
        settle(network, third)
        # alice: 3 − 1 − 1.5 + 1.5 (refund) + 2 (from bob) = 4
        assert channel.balance("alice") == 4.0
        # bob:   4 − 2 + 1 (from alice) = 3
        assert channel.balance("bob") == 3.0
        channel.check_invariant()


class TestAccounting:
    def test_flow_counters(self, network, channel):
        pay(network, "alice", "bob", 2.0)
        refund(network, lock(network, ("alice", "bob"), 1.0))
        assert channel.settled_flow("alice") == 2.0
        assert channel.attempted_flow("alice") == 3.0
        assert channel.settled_flow("bob") == 0.0

    def test_imbalance_tracks_balances(self, network, channel):
        assert channel.imbalance() == 1.0  # |3 - 4|
        pay(network, "bob", "alice", 1.0)
        assert channel.imbalance() == 1.0  # |4 - 3|

    def test_flow_imbalance(self, network, channel):
        pay(network, "alice", "bob", 2.0)
        assert channel.flow_imbalance() == 2.0

    def test_fee_free_by_default(self, channel):
        assert channel.forwarding_fee(5.0) == 0.0

    def test_forwarding_fee_is_affine(self):
        channel = PaymentChannel("a", "b", capacity=10.0, base_fee=0.5, fee_rate=0.01)
        assert channel.forwarding_fee(100.0) == pytest.approx(1.5)
        assert channel.forwarding_fee(2.0) == pytest.approx(0.52)

    @pytest.mark.parametrize("amount", [0.0, -3.0])
    def test_nothing_forwarded_pays_no_fee(self, amount):
        channel = PaymentChannel("a", "b", capacity=10.0, base_fee=0.5, fee_rate=0.01)
        assert channel.forwarding_fee(amount) == 0.0

    def test_capacity_is_conserved_through_traffic(self, network, channel):
        for _ in range(10):
            pay(network, "alice", "bob", 1.0)
            pay(network, "bob", "alice", 1.0)
        assert channel.balance("alice") + channel.balance("bob") == pytest.approx(7.0)
        channel.check_invariant()


class TestDeposit:
    def test_deposit_grows_capacity_and_balance(self, channel):
        channel.deposit("alice", 5.0)
        assert channel.balance("alice") == 8.0
        assert channel.capacity == 12.0
        assert channel.total_deposited == 5.0
        channel.check_invariant()

    def test_non_positive_deposit_raises(self, channel):
        with pytest.raises(ChannelError):
            channel.deposit("alice", 0.0)

    @pytest.mark.parametrize("amount", [-1.0, math.inf, math.nan])
    def test_negative_or_non_finite_deposit_raises(self, channel, amount):
        with pytest.raises(ChannelError, match="positive and finite"):
            channel.deposit("alice", amount)
        assert channel.capacity == 7.0
        assert channel.total_deposited == 0.0

    def test_deposit_enables_larger_sends(self, network, channel):
        with pytest.raises(InsufficientFundsError):
            lock(network, ("alice", "bob"), 5.0)
        channel.deposit("alice", 5.0)
        lock(network, ("alice", "bob"), 5.0)
        channel.check_invariant()


class TestInvariant:
    def test_lost_funds_are_reported(self, network, channel):
        lock(network, ("alice", "bob"), 1.0)
        network.state_store.inflight[channel.channel_id, 0] -= 0.5
        with pytest.raises(ChannelError, match="conservation violated"):
            channel.check_invariant()
        with pytest.raises(ChannelError, match="conservation violated"):
            network.check_invariants()

    def test_negative_funds_are_reported(self, network, channel):
        # The parts still sum to the capacity; one of them is negative.
        network.state_store.balance[channel.channel_id] = (-1.0, 8.0)
        with pytest.raises(ChannelError, match="negative funds at 'alice'"):
            channel.check_invariant()
