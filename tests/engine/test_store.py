"""Tests for the array-backed channel state store and its channel views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.store import ChannelStateStore
from repro.errors import ChannelError, InsufficientFundsError
from repro.network.channel import PaymentChannel
from repro.network.network import PaymentNetwork
from tests.path_helpers import lock, settle


class TestAllocation:
    def test_allocate_rows(self):
        store = ChannelStateStore()
        a = store.allocate(100.0, 60.0)
        b = store.allocate(50.0, 25.0)
        assert (a, b) == (0, 1)
        assert len(store) == 2
        assert store.balance_view.tolist() == [[60.0, 40.0], [25.0, 25.0]]
        assert store.capacity_view.tolist() == [100.0, 50.0]

    def test_growth_preserves_state(self):
        store = ChannelStateStore(reserve=2)
        for i in range(40):
            store.allocate(10.0 * (i + 1), 5.0 * (i + 1))
        assert len(store) == 40
        assert store.capacity_view[-1] == pytest.approx(400.0)
        assert store.balance_view[0].tolist() == [5.0, 5.0]


class TestChannelIsView:
    def test_standalone_channel_gets_private_store(self):
        channel = PaymentChannel("a", "b", 100.0)
        assert len(channel.store) == 1
        assert channel.balance("a") == pytest.approx(50.0)

    def test_network_channels_share_one_store(self):
        network = PaymentNetwork()
        c1 = network.add_channel(0, 1, 100.0)
        c2 = network.add_channel(1, 2, 60.0)
        assert c1.store is network.state_store
        assert c2.store is network.state_store
        assert len(network.state_store) == 2
        assert (c1.channel_id, c2.channel_id) == (0, 1)

    def test_mutations_visible_through_arrays_without_copy(self):
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 100.0)
        store = network.state_store
        held = lock(network, (0, 1), 30.0)
        assert store.balance_view[0, 0] == pytest.approx(20.0)
        assert store.inflight_view[0, 0] == pytest.approx(30.0)
        settle(network, held)
        assert store.balance_view[0, 1] == pytest.approx(80.0)
        assert store.settled_flow_view[0, 0] == pytest.approx(30.0)
        assert store.num_settled[0] == 1

    def test_direct_array_write_visible_through_view(self):
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 100.0)
        network.state_store.balance[channel.channel_id, 0] = 77.0
        assert channel.balance(0) == pytest.approx(77.0)

    def test_frozen_flag_lives_in_store(self):
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 100.0)
        channel.freeze()
        assert network.state_store.frozen_view[0]
        assert network.available(0, 1) == 0.0
        with pytest.raises(InsufficientFundsError):
            lock(network, (0, 1), 1.0)
        channel.unfreeze()
        assert network.available(0, 1) == pytest.approx(50.0)

    def test_deposit_updates_capacity_row(self):
        channel = PaymentChannel("u", "v", 10.0)
        channel.deposit("u", 5.0)
        assert channel.capacity == pytest.approx(15.0)
        assert channel.total_deposited == pytest.approx(5.0)
        channel.check_invariant()


class TestVectorisedAggregates:
    def _network(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0, balance_u=70.0)
        network.add_channel(1, 2, 60.0)
        network.add_channel(2, 3, 40.0, balance_u=10.0)
        return network

    def test_totals_match_per_channel_sums(self):
        network = self._network()
        lock(network, (0, 1), 20.0)
        assert network.total_funds() == pytest.approx(200.0)
        assert network.total_inflight() == pytest.approx(20.0)
        per_channel = sum(
            c.inflight(c.node_a) + c.inflight(c.node_b) for c in network.channels()
        )
        assert network.total_inflight() == pytest.approx(per_channel)

    def test_imbalances_match_channel_views(self):
        network = self._network()
        store = network.state_store
        expected = [c.imbalance() for c in network.channels()]
        assert store.imbalances().tolist() == pytest.approx(expected)

    def test_conservation_check_finds_violation(self):
        network = self._network()
        assert network.state_store.check_conservation() is None
        network.state_store.balance[1, 0] += 5.0  # corrupt one row
        assert network.state_store.check_conservation() == 1

    def test_channel_id_lookup(self):
        network = self._network()
        cid, side = network.direction(1, 0)[1:]
        assert cid == 0 and side == 1
        assert network.state_store.balance[cid, side] == pytest.approx(30.0)

    def test_snapshot_is_a_copy(self):
        network = self._network()
        snap = network.state_store.snapshot_balances()
        lock(network, (0, 1), 10.0)
        assert snap[0, 0] == pytest.approx(70.0)  # unchanged
        assert network.state_store.balance_view[0, 0] == pytest.approx(60.0)


class TestSingleHopKernels:
    """``try_lock``/``apply_refund``, the one-hop lock and backtrack of the
    hop-by-hop and backpressure transports, and the row-level helpers."""

    def _store(self) -> ChannelStateStore:
        store = ChannelStateStore()
        store.allocate(10.0, 4.0)
        store.allocate(20.0, 15.0)
        return store

    def test_try_lock_moves_funds_and_bumps_the_version(self):
        store = self._store()
        version = store.version
        assert store.try_lock(3, 2.5) == 2.5  # channel 1, side 1
        assert store.balance[1].tolist() == [15.0, 2.5]
        assert store.inflight[1].tolist() == [0.0, 2.5]
        assert store.sent[1].tolist() == [0.0, 2.5]
        assert store.version == version + 1

    def test_try_lock_beyond_balance_writes_nothing(self):
        store = self._store()
        before = {
            name: getattr(store, name).copy()
            for name in ("balance", "inflight", "sent")
        }
        version = store.version
        assert store.try_lock(0, 4.0 + 1e-6) == -1.0
        for name, array in before.items():
            assert np.array_equal(getattr(store, name), array), name
        assert store.version == version

    def test_try_lock_clamps_to_the_balance_within_tolerance(self):
        store = self._store()
        assert store.try_lock(0, 4.0 + 5e-10) == 4.0
        assert store.balance[0, 0] == 0.0
        assert store.inflight[0, 0] == 4.0

    def test_try_lock_refuses_a_frozen_channel(self):
        store = self._store()
        store.set_frozen(0, True)
        assert store.try_lock(0, 1.0) == -1.0
        assert store.try_lock(1, 1.0) == -1.0
        assert store.inflight[0].tolist() == [0.0, 0.0]
        assert store.try_lock(2, 1.0) == 1.0  # other channel unaffected

    def test_apply_refund_undoes_a_try_lock(self):
        store = self._store()
        balance = store.balance.copy()
        store.try_lock(1, 3.0)
        version = store.version
        store.apply_refund(0, 1, 3.0)
        assert np.array_equal(store.balance, balance)
        assert store.inflight[0].tolist() == [0.0, 0.0]
        assert store.num_refunded[0] == 1
        assert store.sent[0, 1] == 3.0  # the attempt stays counted
        assert store.version == version + 1

    def test_frozen_count_counts_each_channel_once(self):
        store = self._store()
        for flag, expected in ((True, 1), (True, 1), (False, 0), (False, 0)):
            version = store.version
            store.set_frozen(0, flag)
            assert store.frozen_count == expected
            assert store.version == version + 1  # every call bumps
        store.set_frozen(0, True)
        store.set_frozen(1, True)
        assert store.frozen_count == 2

    def test_availability_is_zero_on_frozen_hops(self):
        store = self._store()
        dirs = np.array([0, 1, 2, 3])
        assert store.availability(dirs).tolist() == [4.0, 6.0, 15.0, 5.0]
        store.set_frozen(1, True)
        assert store.availability(dirs).tolist() == [4.0, 6.0, 0.0, 0.0]

    def test_describe_reports_the_row(self):
        store = self._store()
        store.try_lock(2, 5.0)
        assert store.describe(1) == (20.0, 10.0, 5.0, 5.0, 0.0)

    @pytest.mark.parametrize("cid", [-1, 2])
    def test_describe_rejects_unknown_rows(self, cid):
        with pytest.raises(ChannelError, match="unknown channel id"):
            self._store().describe(cid)
