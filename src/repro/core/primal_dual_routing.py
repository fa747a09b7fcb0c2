"""Spider (PrimalDual): the online price-based protocol.

This is the §5.3 algorithm run *inside* the simulator rather than on the
fluid model — the design the paper defers to future work ("We leave
implementing in-network queues and rate control to future work") and which
became the NSDI-version protocol:

* every channel keeps capacity/imbalance prices, updated periodically from
  the value it observed locking in each direction (the network
  :class:`~repro.engine.signals.ControlPlane`'s price block, eqs. 23–24
  normalised);
* every source keeps a per-path sending rate x_p, nudged by the primal
  update x_p ← Proj[x_p + α(1 − z_p)] where the projection caps the pair's
  total rate at its estimated demand rate (eq. 21);
* units are paced onto each path by a token bucket refilling at x_p
  (:class:`~repro.core.congestion.TokenBucket`).

Demand rates are estimated online as cumulative arrived value over elapsed
time per pair, so the scheme needs no oracle knowledge of the demand
matrix (unlike Spider-LP).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.congestion import TokenBucket
from repro.fluid.primal_dual import project_capped_simplex
from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.events import TickTimer
    from repro.engine.pathtable import CompiledPath
    from repro.engine.session import SimulationSession
    from repro.engine.signals import ControlPlane

__all__ = ["SpiderPrimalDualScheme"]

Pair = Tuple[int, int]
_EPS = 1e-9


class _PairState:
    """Per-pair primal state: paths, rates, buckets, demand estimate."""

    __slots__ = ("cpaths", "rates", "buckets", "first_seen", "arrived_value")

    def __init__(self, cpaths: List["CompiledPath"], now: float, initial_rate: float):
        self.cpaths = cpaths
        self.rates = np.full(len(cpaths), initial_rate)
        self.buckets = [
            TokenBucket(rate=initial_rate, burst=max(initial_rate, 1.0), now=now)
            for _ in cpaths
        ]
        self.first_seen = now
        self.arrived_value = 0.0

    def demand_rate(self, now: float) -> float:
        """Observed long-run demand rate for this pair (value/second)."""
        elapsed = max(now - self.first_seen, 1.0)
        return self.arrived_value / elapsed


class SpiderPrimalDualScheme(RoutingScheme):
    """Online decentralized primal-dual routing (non-atomic).

    Parameters
    ----------
    num_paths:
        Edge-disjoint shortest paths per pair (paper: 4).
    alpha:
        Primal step in value/second per unit of (1 − z_p).
    eta, kappa:
        Normalised dual steps for capacity and imbalance prices.
    update_interval:
        Seconds between price/rate updates (the protocol's control period).
    demand_headroom:
        The per-pair rate cap is ``demand_headroom ×`` the estimated demand
        rate, leaving room to drain queued backlog.
    """

    name = "spider-primal-dual"
    atomic = False

    def __init__(
        self,
        num_paths: int = 4,
        alpha: Optional[float] = None,
        eta: float = 0.1,
        kappa: float = 0.1,
        update_interval: float = 1.0,
        demand_headroom: float = 2.0,
    ):
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        if update_interval <= 0:
            raise ValueError(f"update_interval must be positive, got {update_interval}")
        if demand_headroom < 1.0:
            raise ValueError(f"demand_headroom must be >= 1, got {demand_headroom}")
        self.num_paths = num_paths
        self.alpha = alpha
        self.eta = eta
        self.kappa = kappa
        self.update_interval = update_interval
        self.demand_headroom = demand_headroom
        self._pairs: Dict[Pair, _PairState] = {}
        self._prices: Optional["ControlPlane"] = None
        self._timer: Optional["TickTimer"] = None
        self._alpha_value: float = 1.0

    # ------------------------------------------------------------------
    def prepare(self, runtime: "SimulationSession") -> None:
        delta = max(runtime.config.confirmation_delay, 1e-3)
        self._prices = runtime.network.control_plane
        self._prices.configure_prices(delta)
        self._pairs = {}
        if self.alpha is None:
            # Default primal step: a small fraction of the mean channel
            # capacity rate, so rates move meaningfully within a few control
            # periods at any capacity scale.
            mean_cap = np.mean([c.capacity for c in runtime.network.channels()])
            self._alpha_value = 0.05 * float(mean_cap) / delta
        else:
            self._alpha_value = self.alpha
        self._timer = runtime.sim.every(
            self.update_interval, lambda: self._control_step(runtime)
        )

    # ------------------------------------------------------------------
    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        pair = (payment.source, payment.dest)
        state = self._pairs.get(pair)
        if state is None:
            # The pair's compiled handle: its paths are probed and sent on
            # without re-resolving a node tuple.
            handle = runtime.path_handle(payment.source, payment.dest, self.num_paths)
            if handle is None:
                runtime.fail_payment(payment)
                return
            cpaths = handle.cpaths
            initial = max(payment.amount / len(cpaths), 1.0)
            state = _PairState(cpaths, runtime.now, initial_rate=initial)
            self._pairs[pair] = state
        if payment.attempts == 1:
            state.arrived_value += payment.amount
        min_unit = runtime.config.min_unit_value
        now = runtime.now
        # Spend tokens path by path, cheapest (lowest price) first.
        order = sorted(
            range(len(state.cpaths)),
            key=lambda i: self._prices.path_price(state.cpaths[i]),
        )
        table = runtime.network.path_table
        for i in order:
            if payment.remaining < min_unit:
                break
            cpath = state.cpaths[i]
            bucket = state.buckets[i]
            while payment.remaining >= min_unit:
                # What the path delivers with its fees included: a raw
                # bottleneck would bounce on a fee-loaded upstream hop.
                budget = min(
                    bucket.available(now),
                    table.deliverable(cpath),
                    payment.remaining,
                    runtime.config.mtu,
                )
                if budget < min_unit:
                    break
                if not runtime.send_compiled(payment, cpath, budget):
                    break
                bucket.consume(budget, now)
                self._prices.observe_path(cpath, budget)

    # ------------------------------------------------------------------
    def _control_step(self, runtime: "SimulationSession") -> None:
        """One protocol period: dual price update then primal rate update."""
        now = runtime.now
        self._prices.update_prices(self.update_interval, self.eta, self.kappa)
        for pair, state in self._pairs.items():
            prices = np.array(
                [self._prices.path_price(c) for c in state.cpaths]
            )
            rates = state.rates + self._alpha_value * (1.0 - prices)
            cap = max(
                self.demand_headroom * state.demand_rate(now),
                len(state.cpaths) * 1.0,
            )
            state.rates = project_capped_simplex(rates, cap)
            for bucket, rate in zip(state.buckets, state.rates):
                bucket.set_rate(float(rate), now)
                bucket.set_burst(
                    max(float(rate) * 2.0 * self.update_interval, 1.0), now
                )
