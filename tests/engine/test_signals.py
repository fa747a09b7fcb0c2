"""ControlPlane kernels pinned against the per-element reference loops.

The control plane's acceptance bar is float-for-float equality with the
reference loops in ``tests/reference/signals.py`` (and, for prices, with
the per-channel :class:`ChannelPriceState` model), across random
fee-bearing / frozen topologies: marks, prices, gradients, queue penalty,
imbalance and tick must agree exactly — not approximately — because the
determinism suite pins byte-identical metrics JSON for whole runs on the
reference loops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.signals import ControlPlane
from repro.errors import ConfigError
from repro.network.network import PaymentNetwork
from repro.simulator.rng import make_rng
from repro.topology import ripple_topology
from tests.engine.test_pathtable import build_network, network_specs
from tests.reference import signals as reference
from tests.reference.signals import ReferencePriceTable


def _random_network(rng, fees: bool = True, frozen: bool = True):
    """A Ripple-like network with random balances, fees and frozen edges."""
    network = ripple_topology("tiny", seed=int(rng.integers(0, 2**31))).build_network(
        default_capacity=200.0
    )
    skews = []
    for channel in network.channels():
        # Skew balances so imbalance signals are non-trivial.
        shift = float(rng.uniform(-80.0, 80.0))
        if shift > 0:
            shift = min(shift, channel.balance(channel.node_b))
            if shift > 0:
                skews.append(((channel.node_b, channel.node_a), shift))
        elif shift < 0:
            take = min(-shift, channel.balance(channel.node_a))
            if take > 0:
                skews.append(((channel.node_a, channel.node_b), take))
        if fees and rng.random() < 0.3:
            channel.base_fee = float(rng.uniform(0.0, 0.5))
            channel.fee_rate = float(rng.uniform(0.0, 0.01))
    # Fees are set before the first lock compiles a path (compiled paths
    # snapshot the fee schedule).
    for hop, amount in skews:
        network.settle_path(hop, network.lock_path(hop, amount))
    if frozen:
        channels = list(network.channels())
        for channel in rng.choice(len(channels), size=2, replace=False):
            channels[int(channel)].freeze()
    return network


def _random_paths(network, rng, count: int = 12):
    """Sample ``count`` multi-hop paths through the network."""
    view = network.path_service.view(k=4)
    nodes = sorted(network.nodes())
    paths = []
    while len(paths) < count:
        i, j = rng.choice(len(nodes), size=2, replace=False)
        for path in view.paths(nodes[int(i)], nodes[int(j)]):
            if len(path) >= 2:
                paths.append(path)
    return paths[:count]


def _planes(network):
    """Two planes over one store: the network's own, for the kernels, and
    a second one for the reference loops."""
    return network.control_plane, ControlPlane(network)


def _drive_prices(control, table, paths, rng):
    """One deterministic observe/update workload, on the plane's kernels
    and on the per-channel reference model alike."""
    control.configure_prices(0.5)
    for step in range(40):
        path = paths[int(rng.integers(0, len(paths)))]
        amount = float(rng.uniform(0.5, 40.0))
        control.observe_path(path, amount)
        table.observe_path(path, amount)
        if step % 5 == 4:
            control.update_prices(dt=1.0, eta=0.08, kappa=0.06)
            table.update_all(dt=1.0, eta=0.08, kappa=0.06)


def _assert_prices_match(network, control, table, paths):
    """λ, both µ and every path price: plane arrays == reference objects."""
    state = control.state
    for u, v in network.edges():
        cid, side = network.channel_id(u, v)
        price = table.state(u, v)
        assert float(state.lam[cid]) == price.lam
        assert float(state.mu[cid, side]) == price.mu[(u, v)]
        assert float(state.mu[cid, 1 - side]) == price.mu[(v, u)]
    for path in paths:
        assert control.path_price(path) == table.path_price(path)


class TestPriceParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lambda_mu_and_path_prices_match_exactly(self, seed):
        """Kernel λ/µ/path prices equal the per-channel model bit for bit."""
        rng = make_rng(100 + seed)
        network = _random_network(rng)
        paths = _random_paths(network, rng)
        table = ReferencePriceTable(network, delta=0.5)
        _drive_prices(network.control_plane, table, paths, make_rng(200 + seed))
        _assert_prices_match(network, network.control_plane, table, paths)

    def test_mean_price_samples_match(self):
        """The metrics sample (mean λ per update) matches the model's."""
        rng = make_rng(7)
        network = _random_network(rng)
        paths = _random_paths(network, rng)
        table = ReferencePriceTable(network, delta=0.5)
        control = network.control_plane
        _drive_prices(control, table, paths, make_rng(8))
        assert control.price_samples == table.price_samples
        assert control.price_samples  # the workload updated at least once

    def test_price_loops_match_kernels(self):
        """The reference observe/update/path-price loops, run on a second
        plane, land on the kernels' arrays bit for bit."""
        rng = make_rng(9)
        network = _random_network(rng)
        paths = _random_paths(network, rng)
        kernel, loop = _planes(network)
        for plane in (kernel, loop):
            plane.configure_prices(0.5)
        drive = make_rng(10)
        for step in range(30):
            path = paths[int(drive.integers(0, len(paths)))]
            amount = float(drive.uniform(0.5, 40.0))
            kernel.observe_path(path, amount)
            reference.observe_path(loop, path, amount)
            assert np.array_equal(kernel.state.window, loop.state.window)
            if step % 4 == 3:
                kernel.update_prices(dt=1.0, eta=0.1, kappa=0.07)
                reference.update_prices(loop, dt=1.0, eta=0.1, kappa=0.07)
        for name in ("lam", "mu", "window"):
            assert np.array_equal(getattr(kernel.state, name), getattr(loop.state, name))
        assert kernel.price_samples == loop.price_samples
        for path in paths:
            assert kernel.path_price(path) == reference.path_price(loop, path)

    def test_update_rejects_non_positive_dt(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        with pytest.raises(ConfigError):
            network.control_plane.update_prices(dt=0.0, eta=0.1, kappa=0.1)
        with pytest.raises(ConfigError):
            reference.update_prices(network.control_plane, dt=0.0, eta=0.1, kappa=0.1)


class _FakeUnit:
    __slots__ = ("marked",)

    def __init__(self, marked=False):
        self.marked = marked


def _mark_outcome(observe, plane, side, delays, pre_marked):
    """(newly marked, unit flags, mark counter, serviced counter)."""
    units = [_FakeUnit(marked) for marked in pre_marked]
    newly = observe(plane, 0, side, delays, units)
    return (
        newly,
        [unit.marked for unit in units],
        int(plane.state.marks[0, side]),
        int(plane.state.serviced[0, side]),
    )


def _mark_scan_parity(delays, pre_marked, threshold, side=0):
    network = PaymentNetwork()
    network.add_channel(0, 1, 100.0)
    kernel, loop = _planes(network)
    for plane in (kernel, loop):
        plane.configure_marking(threshold)
    assert _mark_outcome(
        ControlPlane.observe_service, kernel, side, delays, pre_marked
    ) == _mark_outcome(reference.observe_service, loop, side, delays, pre_marked)


class TestMarkScanParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch", [1, 3, 7, 64])
    def test_marks_and_counters_match(self, seed, batch):
        """Batch scans mark exactly the units the per-unit branch marks."""
        rng = make_rng(300 + seed)
        delays = [float(d) for d in rng.uniform(0.0, 1.0, size=batch)]
        pre_marked = [bool(b) for b in rng.random(batch) < 0.2]
        _mark_scan_parity(delays, pre_marked, 0.4)

    def test_disabled_marking_never_marks(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        control = network.control_plane
        control.configure_marking(None)
        units = [_FakeUnit() for _ in range(8)]
        assert control.observe_service(0, 1, [9e9] * 8, units) == 0
        assert not any(u.marked for u in units)
        assert int(control.state.serviced[0, 1]) == 8

    def test_already_marked_units_not_double_counted(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        control = network.control_plane
        control.configure_marking(0.1)
        units = [_FakeUnit(marked=True) for _ in range(6)]
        assert control.observe_service(0, 0, [1.0] * 6, units) == 0
        assert int(control.state.marks[0, 0]) == 0


class TestGradientParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_weights_match(self, seed):
        rng = make_rng(400 + seed)
        n = int(rng.integers(1, 24))
        backlog_u = [float(x) for x in rng.uniform(0.0, 50.0, size=n)]
        backlog_v = [float(x) for x in rng.uniform(0.0, 50.0, size=n)]
        dist_u = [int(x) for x in rng.integers(-1, 10, size=n)]
        dist_v = [int(x) for x in rng.integers(-1, 10, size=n)]
        beta = float(rng.uniform(0.1, 2.0))
        network = PaymentNetwork()
        network.add_channel(0, 1, 10.0)
        control = network.control_plane
        args = (backlog_u, backlog_v, dist_u, dist_v, beta)
        weights = control.gradient_weights(*args)
        assert weights == reference.gradient_weights(control, *args)
        # int64 distance rows (what the backpressure transport hands over).
        rows = (backlog_u, backlog_v, np.array(dist_u), np.array(dist_v), beta)
        assert control.gradient_weights(*rows) == weights
        for bu, bv, du, dv, w in zip(
            backlog_u, backlog_v, dist_u, dist_v, weights
        ):
            if du < 0 or dv < 0:
                assert w == 0.0
            else:
                assert w == (bu - bv) + beta * (du - dv)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tick_and_path_queue_penalty_match(self, seed):
        rng = make_rng(500 + seed)
        network = _random_network(rng, fees=False, frozen=False)
        paths = _random_paths(network, rng)
        kernel, loop = _planes(network)
        store = network.state_store
        depth_rng = make_rng(600 + seed)
        for _ in range(4):
            store.queue_depth_view[:] = depth_rng.integers(
                0, 12, size=store.queue_depth_view.shape
            )
            kernel.tick()
            reference.tick(loop)
        assert np.array_equal(kernel.state.ewma_qdepth, loop.state.ewma_qdepth)
        assert kernel.ticks == loop.ticks == 4
        penalty = kernel.path_queue_penalty(paths)
        assert penalty == reference.path_queue_penalty(loop, paths)
        assert any(p > 0 for p in penalty)

    def test_queue_gradient_reads_live_depths(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        store = network.state_store
        store.queue_depth[0, 0] = 5
        store.queue_depth[0, 1] = 2
        gradient = network.control_plane.queue_gradient(
            np.array([0, 0]), np.array([0, 1])
        )
        assert gradient.tolist() == [3, -3]


class TestImbalanceParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_path_imbalance_matches(self, seed):
        rng = make_rng(700 + seed)
        network = _random_network(rng, frozen=False)
        paths = _random_paths(network, rng)
        control = network.control_plane
        table = network.path_table

        def both():
            for path in paths:
                cpath = table.compile(path)
                assert control.path_imbalance(cpath) == reference.path_imbalance(
                    control, cpath
                )

        both()
        # Mutate some balances, probe again: the stamp-driven refresh must
        # track the store (not serve stale cache entries).
        for channel in list(network.channels())[:5]:
            amount = min(5.0, channel.balance(channel.node_a))
            if amount > 0:
                hop = (channel.node_a, channel.node_b)
                network.settle_path(hop, network.lock_path(hop, amount))
        both()


class TestTickParity:
    def test_ewma_qdepth_matches_and_decays(self):
        rng = make_rng(11)
        network = _random_network(rng, fees=False, frozen=False)
        kernel, loop = _planes(network)
        store = network.state_store
        for depth in (10, 0, 0):
            store.queue_depth_view[:] = depth
            kernel.tick()
            reference.tick(loop)
        smoothed = kernel.state.ewma_qdepth
        assert np.array_equal(smoothed, loop.state.ewma_qdepth)
        # Rising then decaying toward the live (zero) depth.
        assert (smoothed > 0).all()
        assert (smoothed < 10).all()

    def test_invalid_ewma_alpha_rejected(self):
        network = PaymentNetwork()
        with pytest.raises(ConfigError):
            ControlPlane(network, ewma_alpha=0.0)


class TestHypothesisParity:
    """Random fee/frozen topologies: kernels == reference loops."""

    @settings(max_examples=40, deadline=None)
    @given(
        network_specs(),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),  # path selector
                st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
                st.booleans(),  # run a dual update after this observe?
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_prices_and_imbalance_parity(self, data, operations):
        """Identical observe/update mixes ⇒ identical λ/µ/z_p/imbalance."""
        spec, paths = data
        network = build_network(spec)
        control = network.control_plane
        control.configure_prices(0.5)
        table = ReferencePriceTable(network, delta=0.5)
        for selector, amount, update in operations:
            path = paths[selector % len(paths)]
            control.observe_path(path, amount)
            table.observe_path(path, amount)
            if update:
                control.update_prices(dt=1.0, eta=0.1, kappa=0.07)
                table.update_all(dt=1.0, eta=0.1, kappa=0.07)
        _assert_prices_match(network, control, table, paths)
        assert control.price_samples == table.price_samples
        for path in paths:
            cpath = network.path_table.compile(path)
            assert control.path_imbalance(cpath) == reference.path_imbalance(
                control, cpath
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                st.booleans(),  # pre-marked at an earlier hop?
            ),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
    )
    def test_mark_scan_parity(self, batch, threshold):
        _mark_scan_parity(
            [delay for delay, _ in batch],
            [marked for _, marked in batch],
            threshold,
            side=1,
        )


class TestSizing:
    def test_plane_grows_with_the_store(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        control = network.control_plane
        assert control.state.n == 1
        network.add_channel(1, 2, 100.0)
        control.tick()
        assert control.state.n == 2
        assert control.state.mark_threshold[1, 0] == np.inf
        # Every entry point grows on demand, not just tick().
        assert control.observe_service(1, 0, [0.1], [_FakeUnit()]) == 0
        network.add_channel(2, 3, 100.0)
        assert control.path_price((2, 3)) == 0.0
