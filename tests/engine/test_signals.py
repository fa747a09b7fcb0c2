"""ControlPlane kernels pinned against the per-element reference loops.

The control plane's acceptance bar is float-for-float equality with the
reference loops in ``tests/reference/signals.py`` (and, for prices, with
the per-channel :class:`ChannelPriceState` model), across random
fee-bearing / frozen topologies: marks, prices and gradients must agree
exactly — not approximately — because the
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
from tests.path_helpers import pay
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
        # Skew balances, as a network mid-run has them.
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
        pay(network, hop, amount)
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


def _drive_prices(network, table, paths, rng):
    """One deterministic observe/update workload, on the plane's kernels
    (compiled paths) and on the per-channel reference model (node tuples)
    alike."""
    control = network.control_plane
    cpaths = [network.path_table.compile(path) for path in paths]
    control.configure_prices(0.5)
    for step in range(40):
        i = int(rng.integers(0, len(paths)))
        amount = float(rng.uniform(0.5, 40.0))
        control.observe_path(cpaths[i], amount)
        table.observe_path(paths[i], amount)
        if step % 5 == 4:
            control.update_prices(dt=1.0, eta=0.08, kappa=0.06)
            table.update_all(dt=1.0, eta=0.08, kappa=0.06)


def _assert_prices_match(network, control, table, paths):
    """λ, both µ and every path price: plane arrays == reference objects."""
    state = control.state
    for u, v in network.edges():
        cid, side = network.direction(u, v)[1:]
        price = table.state(u, v)
        assert float(state.lam[cid]) == price.lam
        assert float(state.mu[cid, side]) == price.mu[(u, v)]
        assert float(state.mu[cid, 1 - side]) == price.mu[(v, u)]
    for path in paths:
        cpath = network.path_table.compile(path)
        assert control.path_price(cpath) == table.path_price(path)


class TestPriceParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lambda_mu_and_path_prices_match_exactly(self, seed):
        """Kernel λ/µ/path prices equal the per-channel model bit for bit."""
        rng = make_rng(100 + seed)
        network = _random_network(rng)
        paths = _random_paths(network, rng)
        table = ReferencePriceTable(network, delta=0.5)
        _drive_prices(network, table, paths, make_rng(200 + seed))
        _assert_prices_match(network, network.control_plane, table, paths)

    def test_mean_price_samples_match(self):
        """The metrics sample (mean λ per update) matches the model's."""
        rng = make_rng(7)
        network = _random_network(rng)
        paths = _random_paths(network, rng)
        table = ReferencePriceTable(network, delta=0.5)
        control = network.control_plane
        _drive_prices(network, table, paths, make_rng(8))
        assert control.price_samples == table.price_samples
        assert control.price_samples  # the workload updated at least once

    def test_price_loops_match_kernels(self):
        """The reference observe/update/path-price loops, run on a second
        plane, land on the kernels' arrays bit for bit."""
        rng = make_rng(9)
        network = _random_network(rng)
        paths = _random_paths(network, rng)
        cpaths = [network.path_table.compile(path) for path in paths]
        kernel, loop = _planes(network)
        for plane in (kernel, loop):
            plane.configure_prices(0.5)
        drive = make_rng(10)
        for step in range(30):
            i = int(drive.integers(0, len(paths)))
            amount = float(drive.uniform(0.5, 40.0))
            kernel.observe_path(cpaths[i], amount)
            reference.observe_path(loop, paths[i], amount)
            assert np.array_equal(kernel.state.window, loop.state.window)
            if step % 4 == 3:
                kernel.update_prices(dt=1.0, eta=0.1, kappa=0.07)
                reference.update_prices(loop, dt=1.0, eta=0.1, kappa=0.07)
        for name in ("lam", "mu", "window"):
            assert np.array_equal(getattr(kernel.state, name), getattr(loop.state, name))
        assert kernel.price_samples == loop.price_samples
        for path, cpath in zip(paths, cpaths):
            assert kernel.path_price(cpath) == reference.path_price(loop, path)

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
    @pytest.mark.parametrize("batch", [0, 1, 2, 3, 4, 7, 24, 64])
    def test_marks_and_counters_match(self, seed, batch):
        """The kernel marks exactly the units the per-unit reference
        marks, for every batch size a service call hands over (empty
        included)."""
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

    @pytest.mark.parametrize("side", [0, 1])
    def test_delay_at_the_threshold_is_not_late(self, side):
        """Only a delay strictly above the threshold marks."""
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        control = network.control_plane
        control.configure_marking(0.5)
        units = [_FakeUnit() for _ in range(3)]
        assert control.observe_service(0, side, [0.5, 0.5000001, 0.4], units) == 1
        assert [u.marked for u in units] == [False, True, False]

    def test_counters_are_per_direction(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        control = network.control_plane
        control.configure_marking(0.1)
        control.observe_service(0, 0, [1.0, 0.0], [_FakeUnit(), _FakeUnit()])
        control.observe_service(0, 1, [0.0] * 3, [_FakeUnit()] * 3)
        assert control.state.marks[0].tolist() == [1, 0]
        assert control.state.serviced[0].tolist() == [2, 3]

    def test_mark_rate_spans_batches_and_directions(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_channel(1, 2, 100.0)
        control = network.control_plane
        assert control.mark_rate() == 0.0
        control.configure_marking(0.1)
        units = [_FakeUnit() for _ in range(4)]
        control.observe_service(0, 0, [1.0, 0.0, 0.0], units[:3])
        control.observe_service(1, 1, [1.0], units[3:])
        assert control.mark_rate() == 2 / 4

    def test_empty_batch_changes_nothing(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        control = network.control_plane
        control.configure_marking(0.1)
        assert control.observe_service(0, 0, [], []) == 0
        assert not control.state.marks.any()
        assert not control.state.serviced.any()

    def test_already_marked_units_not_double_counted(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        control = network.control_plane
        control.configure_marking(0.1)
        units = [_FakeUnit(marked=True) for _ in range(6)]
        assert control.observe_service(0, 0, [1.0] * 6, units) == 0
        assert int(control.state.marks[0, 0]) == 0


class TestGradientParity:
    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 24])
    def test_gradient_weights_match_around_the_loop_cutoff(self, n):
        """Below ``_GRADIENT_MIN`` (4) candidates the kernel loops, from 4
        up it is one array expression; both equal the reference."""
        rng = make_rng(450 + n)
        args = (
            [float(x) for x in rng.uniform(0.0, 50.0, size=n)],
            [float(x) for x in rng.uniform(0.0, 50.0, size=n)],
            [int(x) for x in rng.integers(-1, 10, size=n)],
            [int(x) for x in rng.integers(-1, 10, size=n)],
            0.7,
        )
        network = PaymentNetwork()
        network.add_channel(0, 1, 10.0)
        control = network.control_plane
        weights = control.gradient_weights(*args)
        assert len(weights) == n
        assert weights == reference.gradient_weights(control, *args)

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


class TestTick:
    def test_tick_only_counts(self):
        """A tick counts the poll and leaves every signal array as it was."""
        network = _random_network(make_rng(11), fees=False, frozen=False)
        control = network.control_plane
        control.configure_prices(0.5)
        control.configure_marking(0.3)
        before = {
            name: getattr(control.state, name).copy()
            for name in control.state.__slots__
            if name != "n"
        }
        for _ in range(3):
            control.tick()
        assert control.ticks == 3
        for name, array in before.items():
            assert np.array_equal(getattr(control.state, name), array), name


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
        """Identical observe/update mixes ⇒ identical λ, imbalance price µ
        and z_p."""
        spec, paths = data
        network = build_network(spec)
        control = network.control_plane
        control.configure_prices(0.5)
        table = ReferencePriceTable(network, delta=0.5)
        cpaths = [network.path_table.compile(path) for path in paths]
        for selector, amount, update in operations:
            i = selector % len(paths)
            control.observe_path(cpaths[i], amount)
            table.observe_path(paths[i], amount)
            if update:
                control.update_prices(dt=1.0, eta=0.1, kappa=0.07)
                table.update_all(dt=1.0, eta=0.1, kappa=0.07)
        _assert_prices_match(network, control, table, paths)
        assert control.price_samples == table.price_samples

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
        control.configure_prices(1.0)
        assert control.state.n == 2
        assert control.state.mark_threshold[1, 0] == np.inf
        # Every entry point grows on demand, not just configure_prices().
        assert control.observe_service(1, 0, [0.1], [_FakeUnit()]) == 0
        network.add_channel(2, 3, 100.0)
        assert control.path_price(network.path_table.compile((2, 3))) == 0.0
