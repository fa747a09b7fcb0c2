"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.engine.events import TickEngine
from repro.network.network import PaymentNetwork
from repro.topology.examples import FIG4_DEMANDS, fig4_topology
from repro.topology.generators import line_topology


@pytest.fixture
def sim() -> TickEngine:
    """A fresh engine starting at t=0."""
    return TickEngine()


@pytest.fixture
def fig4():
    """The paper's 5-node example topology."""
    return fig4_topology()


@pytest.fixture
def fig4_demands():
    """The paper's example demand matrix."""
    return dict(FIG4_DEMANDS)


@pytest.fixture
def line3() -> PaymentNetwork:
    """A 3-node line network 0—1—2 with capacity 100 per channel, split evenly."""
    return line_topology(3).build_network(default_capacity=100.0)


@pytest.fixture
def triangle() -> PaymentNetwork:
    """A 3-cycle network with capacity 100 per channel."""
    network = PaymentNetwork()
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        network.add_channel(u, v, 100.0)
    return network
