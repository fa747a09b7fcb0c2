"""Per-element reference loops for the congestion control plane.

Each function takes a :class:`~repro.engine.signals.ControlPlane` as its
first argument and computes what the plane's kernel of the same name
computes, one unit, hop or channel at a time over the plane's
:class:`~repro.engine.signals.CongestionState` arrays — hops resolved
through ``network.direction`` rather than compiled direction ids, so the
path loops take node tuples where the methods take compiled paths.
:data:`KERNELS` adapts them to the methods' signatures, so a test can run
a whole session on the reference by patching them onto the class.

:class:`ChannelPriceState` / :class:`ReferencePriceTable` are the §5.3
price model as per-channel objects (λ, per-direction µ and observation
windows in dicts keyed by directed edge) — the independent oracle for the
plane's flat price arrays.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.network.network import PaymentNetwork, canonical_edge

__all__ = [
    "KERNELS",
    "ChannelPriceState",
    "ReferencePriceTable",
    "gradient_weights",
    "observe_path",
    "observe_service",
    "path_price",
    "update_prices",
]

DirectedEdge = Tuple[int, int]


def _hops(plane, path: Sequence[int]) -> List[Tuple[int, int]]:
    direction = plane._network.direction
    return [direction(a, b)[1:] for a, b in zip(path, path[1:])]


def observe_service(plane, cid: int, side: int, delays, units) -> int:
    """One counter update and one mark check per unit."""
    state = plane._sync()
    limit = float(state.mark_threshold[cid, side])
    newly = 0
    for delay, unit in zip(delays, units):
        state.serviced[cid, side] += 1
        if delay > limit and not unit.marked:
            unit.marked = True
            newly += 1
            state.marks[cid, side] += 1
    return newly


def observe_path(plane, path: Sequence[int], amount: float) -> None:
    """Add ``amount`` to each hop's observation window."""
    state = plane._sync()
    for cid, side in _hops(plane, path):
        state.window[cid, side] += amount


def path_price(plane, path: Sequence[int]) -> float:
    """Sum of ``λ + µ_(u,v) − µ_(v,u)`` over the hops, left to right."""
    state = plane._sync()
    total = 0.0
    for cid, side in _hops(plane, path):
        total += float(state.lam[cid] + state.mu[cid, side] - state.mu[cid, 1 - side])
    return total


def update_prices(plane, dt: float, eta: float, kappa: float) -> None:
    """The normalised dual step (eqs. 23–24), channel by channel."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt!r}")
    state = plane._sync()
    for cid in range(state.n):
        rate_a = float(state.window[cid, 0]) / dt
        rate_b = float(state.window[cid, 1]) / dt
        scale = max(float(state.capacity_rate[cid]), 1e-9)
        state.lam[cid] = max(
            0.0, float(state.lam[cid]) + eta * ((rate_a + rate_b) / scale - 1.0)
        )
        imbalance = (rate_a - rate_b) / scale
        state.mu[cid, 0] = max(0.0, float(state.mu[cid, 0]) + kappa * imbalance)
        state.mu[cid, 1] = max(0.0, float(state.mu[cid, 1]) - kappa * imbalance)
        state.window[cid, 0] = 0.0
        state.window[cid, 1] = 0.0
    plane.price_samples.append(float(np.mean(state.lam)) if state.n else 0.0)


def gradient_weights(
    plane, backlog_from, backlog_to, dist_from, dist_to, beta
) -> List[float]:
    """``backlog − backlog' + beta·(dist − dist')`` per destination, 0 when
    either distance is negative (unreachable)."""
    out = []
    for bu, bv, du, dv in zip(backlog_from, backlog_to, dist_from, dist_to):
        if du < 0 or dv < 0:
            out.append(0.0)
        else:
            out.append((bu - bv) + beta * (du - dv))
    return out


#: Every ControlPlane kernel this module re-implements, by method name,
#: with the method's signature (the path loops read ``cpath.nodes``).
KERNELS = {
    "observe_service": observe_service,
    "observe_path": lambda plane, cpath, amount: observe_path(
        plane, cpath.nodes, amount
    ),
    "path_price": lambda plane, cpath: path_price(plane, cpath.nodes),
    "update_prices": update_prices,
    "gradient_weights": gradient_weights,
}


class ChannelPriceState:
    """λ and per-direction µ for one channel, plus the observation window."""

    __slots__ = ("u", "v", "lam", "mu", "window")

    def __init__(self, u: int, v: int):
        self.u = u
        self.v = v
        self.lam = 0.0
        self.mu: Dict[DirectedEdge, float] = {(u, v): 0.0, (v, u): 0.0}
        self.window: Dict[DirectedEdge, float] = {(u, v): 0.0, (v, u): 0.0}

    def observe(self, a: int, b: int, amount: float) -> None:
        """Record ``amount`` locked in the a→b direction this window."""
        self.window[(a, b)] += amount

    def update(self, dt: float, capacity_rate: float, eta: float, kappa: float) -> None:
        """Dual step (eqs. 23–24), normalised by the capacity rate."""
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt!r}")
        scale = max(capacity_rate, 1e-9)
        rate_uv = self.window[(self.u, self.v)] / dt
        rate_vu = self.window[(self.v, self.u)] / dt
        self.lam = max(0.0, self.lam + eta * ((rate_uv + rate_vu) / scale - 1.0))
        imbalance = (rate_uv - rate_vu) / scale
        self.mu[(self.u, self.v)] = max(0.0, self.mu[(self.u, self.v)] + kappa * imbalance)
        self.mu[(self.v, self.u)] = max(0.0, self.mu[(self.v, self.u)] - kappa * imbalance)
        self.window[(self.u, self.v)] = 0.0
        self.window[(self.v, self.u)] = 0.0

    def price(self, a: int, b: int) -> float:
        """Directed price z_(a,b) = λ + µ_(a,b) − µ_(b,a)."""
        return self.lam + self.mu[(a, b)] - self.mu[(b, a)]


class ReferencePriceTable:
    """Every channel's :class:`ChannelPriceState`, with path prices."""

    def __init__(self, network: PaymentNetwork, delta: float):
        if delta <= 0:
            raise ConfigError(f"delta must be positive, got {delta!r}")
        self.states: Dict[Tuple[int, int], ChannelPriceState] = {}
        self._capacity_rate: Dict[Tuple[int, int], float] = {}
        #: Mean λ after every update, like ``ControlPlane.price_samples``.
        self.price_samples: List[float] = []
        for channel in network.channels():
            key = canonical_edge(*channel.endpoints)
            self.states[key] = ChannelPriceState(*key)
            self._capacity_rate[key] = channel.capacity / delta

    def state(self, u: int, v: int) -> ChannelPriceState:
        """Price state of the channel joining u and v."""
        return self.states[canonical_edge(u, v)]

    def observe_path(self, path: Sequence[int], amount: float) -> None:
        """Record ``amount`` locked along every hop of ``path``."""
        for a, b in zip(path, path[1:]):
            self.state(a, b).observe(a, b, amount)

    def update_all(self, dt: float, eta: float, kappa: float) -> None:
        """Run the dual step on every channel."""
        for key, state in self.states.items():
            state.update(dt, self._capacity_rate[key], eta, kappa)
        lams = np.array([state.lam for state in self.states.values()])
        self.price_samples.append(float(np.mean(lams)) if lams.size else 0.0)

    def path_price(self, path: Sequence[int]) -> float:
        """z_p — the sum of directed hop prices along ``path``."""
        return sum(self.state(a, b).price(a, b) for a, b in zip(path, path[1:]))
