"""The congestion control plane: one array-backed home for every signal.

Spider's closed loop (§4.2–§4.3) is driven by router congestion state —
queueing-delay marks that shrink per-path windows, and per-channel prices in
the fluid/primal-dual view.  :class:`ControlPlane` keeps all of them over
the :class:`~repro.engine.store.ChannelStateStore`:

* **marking** — per-``(cid, side)`` mark thresholds and mark/serviced
  counters; the hop transport hands each service batch to
  :meth:`observe_service`, which marks the units that waited too long;
* **prices** — flat λ/µ/observation-window arrays with
  :meth:`update_prices` as one set of array ops per control period (the
  §5.3 dual step, eqs. 23–24 normalised) and :meth:`path_price` /
  :meth:`observe_path` as compiled-path gathers like
  :meth:`~repro.engine.pathtable.PathTable.bottleneck`;
* **backpressure** — :meth:`gradient_weights` for the backpressure
  service epoch.

:class:`~repro.engine.session.SimulationSession` ticks the plane once per
poll interval (:meth:`tick`), which counts the intervals.

Every kernel is pinned float for float against a per-element reference
loop (``tests/reference/signals.py``) by ``tests/engine/test_signals.py``
and the determinism suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pathtable import CompiledPath
    from repro.network.network import PaymentNetwork

__all__ = ["CongestionState", "ControlPlane"]

#: Below this many candidate destinations the gradient weights loop.
_GRADIENT_MIN = 4


class CongestionState:
    """Flat per-channel congestion arrays (rows = cid, columns = side).

    Pure storage: every behaviour lives on :class:`ControlPlane`.  The
    price block (λ, µ, observation window, capacity rate) follows the
    normalised §5.3 duals; the marking block holds each direction's
    threshold and counts its marks and serviced units.
    """

    __slots__ = (
        "n",
        "lam",
        "mu",
        "window",
        "capacity_rate",
        "mark_threshold",
        "marks",
        "serviced",
    )

    def __init__(self, n: int):
        self.n = n
        self.lam = np.zeros(n)
        self.mu = np.zeros((n, 2))
        self.window = np.zeros((n, 2))
        self.capacity_rate = np.zeros(n)
        self.mark_threshold = np.full((n, 2), np.inf)
        self.marks = np.zeros((n, 2), dtype=np.int64)
        self.serviced = np.zeros((n, 2), dtype=np.int64)

    def grow_to(self, n: int) -> None:
        """Widen every array to ``n`` channels, preserving existing rows."""
        if n <= self.n:
            return

        def widen(arr: np.ndarray, fill: float = 0) -> np.ndarray:
            shape = (n,) + arr.shape[1:]
            wider = np.full(shape, fill, dtype=arr.dtype)
            wider[: arr.shape[0]] = arr
            return wider

        self.lam = widen(self.lam)
        self.mu = widen(self.mu)
        self.window = widen(self.window)
        self.capacity_rate = widen(self.capacity_rate)
        self.mark_threshold = widen(self.mark_threshold, np.inf)
        self.marks = widen(self.marks)
        self.serviced = widen(self.serviced)
        self.n = n


class ControlPlane:
    """Vectorised congestion signalling over one network's state store.

    Owned lazily by :class:`~repro.network.network.PaymentNetwork`
    (``network.control_plane``), exactly like the path table — the hop
    transport, the windowed/backpressure/primal-dual schemes and the
    metrics summary all read and write the same flat arrays.
    """

    def __init__(self, network: "PaymentNetwork"):
        self._store = network.state_store
        self.state = CongestionState(len(self._store))
        #: Mean λ sampled at every price update (feeds ``mean_price``).
        self.price_samples: List[float] = []
        self.ticks = 0

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def _sync(self) -> CongestionState:
        """Grow the arrays if channels were added since creation."""
        state = self.state
        n = len(self._store)
        if n != state.n:
            state.grow_to(n)
        return state

    # ------------------------------------------------------------------
    # Prices (§5.3 duals, eqs. 23–24 normalised)
    # ------------------------------------------------------------------
    def configure_prices(self, delta: float) -> None:
        """Reset the price block for a run with control period scale ``delta``.

        ``capacity_rate = capacity / delta`` normalises the dual steps, so
        one set of step sizes works across capacity scales.
        """
        if delta <= 0:
            raise ConfigError(f"delta must be positive, got {delta!r}")
        state = self._sync()
        state.capacity_rate[:] = self._store.capacity_view / delta
        state.lam[:] = 0.0
        state.mu[:] = 0.0
        state.window[:] = 0.0

    def observe_path(self, cpath: "CompiledPath", amount: float) -> None:
        """Record ``amount`` locked along every hop of ``cpath``.

        One scatter over the path's direction ids (``d = 2·cid + side``
        indexes the row-major ``(n, 2)`` arrays flat; paths are trails, so
        directions are unique and a plain fancy-indexed add is exact).
        """
        state = self._sync()
        state.window.reshape(-1)[cpath.dirs] += amount

    def path_price(self, cpath: "CompiledPath") -> float:
        """``z_p`` — the sum of directed hop prices along ``cpath``.

        A gather over the path's direction ids; the per-hop prices are
        summed left to right, as a per-hop loop would sum them.
        """
        if len(cpath) == 0:
            return 0.0
        state = self._sync()
        mu = state.mu.reshape(-1)
        values = state.lam[cpath.dirs >> 1] + mu[cpath.dirs] - mu[cpath.dirs ^ 1]
        return float(sum(values.tolist()))

    def update_prices(self, dt: float, eta: float, kappa: float) -> None:
        """One dual step on every channel — a handful of array ops.

        Every elementwise operation follows the per-channel dual step
        (eqs. 23–24 normalised) in the same order, so λ/µ are float for
        float what a per-channel loop computes (orientation does not
        matter: the λ step is commutative in the two directed rates and
        the µ steps are exact negations of each other).  Appends the new
        mean λ to ``price_samples``.
        """
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt!r}")
        state = self._sync()
        rates = state.window / dt
        scale = np.maximum(state.capacity_rate, 1e-9)
        total = rates[:, 0] + rates[:, 1]
        state.lam = np.maximum(0.0, state.lam + eta * (total / scale - 1.0))
        imbalance = (rates[:, 0] - rates[:, 1]) / scale
        step = kappa * imbalance
        state.mu[:, 0] = np.maximum(0.0, state.mu[:, 0] + step)
        state.mu[:, 1] = np.maximum(0.0, state.mu[:, 1] - step)
        state.window[:] = 0.0
        self.price_samples.append(float(np.mean(state.lam)) if state.n else 0.0)

    def mean_price(self) -> float:
        """Run-mean of the per-update mean channel price λ."""
        if not self.price_samples:
            return 0.0
        return float(sum(self.price_samples) / len(self.price_samples))

    # ------------------------------------------------------------------
    # Marking (the windowed transport's 1-bit congestion signal)
    # ------------------------------------------------------------------
    def configure_marking(self, threshold: Optional[float]) -> None:
        """Set the queue-delay mark threshold on every direction.

        ``None`` disables marking (the threshold becomes ``inf`` so no
        delay can exceed it — the serviced counter still accrues).
        """
        state = self._sync()
        state.mark_threshold[:, :] = np.inf if threshold is None else float(threshold)

    def observe_service(
        self, cid: int, side: int, delays: Sequence[float], units: Sequence
    ) -> int:
        """Record one direction's service batch; mark the late units.

        ``units[i]`` waited ``delays[i]`` seconds before service; any unit
        whose delay exceeds the direction's threshold (and which was not
        already marked at an earlier hop) gets its ``marked`` flag set.
        Returns the number of units newly marked.
        """
        state = self._sync()
        limit = float(state.mark_threshold[cid, side])
        newly = 0
        for delay, unit in zip(delays, units):
            if delay > limit and not unit.marked:
                unit.marked = True
                newly += 1
        state.serviced[cid, side] += len(delays)
        state.marks[cid, side] += newly
        return newly

    def mark_rate(self) -> float:
        """Marked fraction of all serviced hop-queue units (0 if none)."""
        serviced = int(self.state.serviced.sum())
        if not serviced:
            return 0.0
        return int(self.state.marks.sum()) / serviced

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------
    def gradient_weights(
        self,
        backlog_from: Sequence[float],
        backlog_to: Sequence[float],
        dist_from: Sequence[int],
        dist_to: Sequence[int],
        beta: float,
    ) -> List[float]:
        """Backpressure service weights for a batch of destinations.

        ``backlog − backlog' + beta·(dist − dist')`` per candidate — the
        §backpressure gradient with the shortest-path bias, computed as one
        vectorised expression once there are ``_GRADIENT_MIN`` candidates
        (fewer loop).  A negative distance encodes "unreachable" and zeroes
        the weight.

        ``dist_from`` / ``dist_to`` accept plain int sequences or int64
        ndarrays — the backpressure transport hands over its cached
        distance-row gathers directly, so the array branch pays no
        conversion and the loop iterates int64 scalars whose float
        arithmetic is value-identical to Python ints.
        """
        if len(backlog_from) >= _GRADIENT_MIN:
            gradient = np.asarray(backlog_from) - np.asarray(backlog_to)
            du = np.asarray(dist_from, dtype=np.int64)
            dv = np.asarray(dist_to, dtype=np.int64)
            weights = gradient + beta * (du - dv)
            unreachable = (du < 0) | (dv < 0)
            if unreachable.any():
                weights = np.where(unreachable, 0.0, weights)
            return weights.tolist()
        out = []
        for bu, bv, du, dv in zip(backlog_from, backlog_to, dist_from, dist_to):
            if du < 0 or dv < 0:
                out.append(0.0)
            else:
                out.append((bu - bv) + beta * (du - dv))
        return out

    # ------------------------------------------------------------------
    # The session tick
    # ------------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> None:
        """Count one poll interval (called by the session on every poll)."""
        # Kept, though it only counts: benchmarks/e2e/e2e_spec.py times it by name.
        self.ticks += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlPlane(channels={self.state.n}, ticks={self.ticks})"
        )
