"""Tests for the online price state (eqs. 23–24, normalised).

The per-channel model (:class:`ChannelPriceState`, the reference) and the
network control plane's flat price block, which primal-dual routing uses.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.network.network import PaymentNetwork
from tests.reference.signals import ChannelPriceState


@pytest.fixture
def network():
    net = PaymentNetwork()
    net.add_channel(0, 1, 100.0)
    net.add_channel(1, 2, 100.0)
    return net


@pytest.fixture
def control(network):
    control = network.control_plane
    control.configure_prices(0.5)
    return control


@pytest.fixture
def compiled(network):
    """Node path → its compiled path, the plane's path argument."""
    return lambda *nodes: network.path_table.compile(nodes)


class TestChannelPriceState:
    def test_initial_prices_are_zero(self):
        state = ChannelPriceState(0, 1)
        assert state.price(0, 1) == 0.0
        assert state.price(1, 0) == 0.0

    def test_imbalanced_traffic_raises_directional_price(self):
        state = ChannelPriceState(0, 1)
        state.observe(0, 1, 50.0)
        state.update(dt=1.0, capacity_rate=100.0, eta=0.1, kappa=0.1)
        assert state.price(0, 1) > 0.0
        # The reverse direction's mu cannot go negative; its price stays at
        # lambda - mu_forward < price(0,1).
        assert state.price(1, 0) < state.price(0, 1)

    def test_balanced_traffic_keeps_mu_flat(self):
        state = ChannelPriceState(0, 1)
        state.observe(0, 1, 30.0)
        state.observe(1, 0, 30.0)
        state.update(dt=1.0, capacity_rate=100.0, eta=0.1, kappa=0.1)
        assert state.mu[(0, 1)] == pytest.approx(0.0)
        assert state.mu[(1, 0)] == pytest.approx(0.0)

    def test_overload_raises_lambda(self):
        state = ChannelPriceState(0, 1)
        state.observe(0, 1, 100.0)
        state.observe(1, 0, 100.0)
        state.update(dt=1.0, capacity_rate=100.0, eta=0.1, kappa=0.1)
        assert state.lam > 0.0

    def test_underload_decays_lambda_to_zero(self):
        state = ChannelPriceState(0, 1)
        state.lam = 0.05
        state.update(dt=1.0, capacity_rate=100.0, eta=0.1, kappa=0.1)
        assert state.lam == pytest.approx(0.0)  # clamped at zero

    def test_window_resets_after_update(self):
        state = ChannelPriceState(0, 1)
        state.observe(0, 1, 10.0)
        state.update(dt=1.0, capacity_rate=100.0, eta=0.1, kappa=0.1)
        assert state.window[(0, 1)] == 0.0

    def test_invalid_dt_rejected(self):
        with pytest.raises(ConfigError):
            ChannelPriceState(0, 1).update(dt=0.0, capacity_rate=1.0, eta=0.1, kappa=0.1)


class TestControlPlanePrices:
    def test_path_price_sums_hops(self, network, control, compiled):
        for (u, v), mu in (((0, 1), 0.2), ((1, 2), 0.3)):
            d = network.direction_id(u, v)
            cid, side = d >> 1, d & 1
            control.state.mu[cid, side] = mu
        assert control.path_price(compiled(0, 1, 2)) == pytest.approx(0.5)

    def test_observe_path_feeds_both_hops(self, network, control, compiled):
        control.observe_path(compiled(0, 1, 2), 10.0)
        for u, v in ((0, 1), (1, 2)):
            d = network.direction_id(u, v)
            assert control.state.window[d >> 1, d & 1] == 10.0

    def test_update_prices_moves_prices(self, control, compiled):
        control.observe_path(compiled(0, 1), 500.0)
        control.update_prices(dt=1.0, eta=0.1, kappa=0.1)
        assert control.path_price(compiled(0, 1)) > 0.0
        assert control.price_samples and control.price_samples[-1] > 0.0

    def test_imbalance_price_steers_against_skewed_direction(self, control, compiled):
        """The §5.3 property: heavy one-way traffic must make that direction
        expensive relative to the reverse, steering senders to rebalance."""
        for _ in range(10):
            control.observe_path(compiled(0, 1), 100.0)
            control.update_prices(dt=1.0, eta=0.05, kappa=0.05)
        assert control.path_price(compiled(0, 1)) > control.path_price(compiled(1, 0))

    def test_invalid_delta_rejected(self, network):
        with pytest.raises(ConfigError):
            network.control_plane.configure_prices(0.0)

    def test_invalid_dt_rejected(self, control):
        with pytest.raises(ConfigError):
            control.update_prices(dt=0.0, eta=0.1, kappa=0.1)
