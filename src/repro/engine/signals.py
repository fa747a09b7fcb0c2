"""The congestion control plane: one array-backed home for every signal.

Spider's closed loop (§4.2–§4.3) is driven by router congestion state —
queueing-delay marks that shrink per-path windows, and per-channel prices in
the fluid/primal-dual view.  :class:`ControlPlane` keeps all of them over
the :class:`~repro.engine.store.ChannelStateStore`:

* **marking** — per-``(cid, side)`` mark thresholds, mark/serviced counters
  and EWMA queueing delay; the hop transport hands each service batch to
  :meth:`observe_service`, which scans delays against thresholds in one
  vectorised comparison instead of a per-unit Python branch;
* **prices** — flat λ/µ/observation-window arrays with
  :meth:`update_prices` as one set of array ops per control period (the
  §5.3 dual step, eqs. 23–24 normalised) and :meth:`path_price` /
  :meth:`observe_path` as compiled-path gathers like
  :meth:`~repro.engine.pathtable.PathTable.bottleneck`;
* **queue gradients** — :meth:`queue_gradient` over the store's live
  ``queue_depth`` arrays, :meth:`gradient_weights` for the backpressure
  service epoch, and :meth:`path_queue_penalty` (the summed smoothed queue
  depth along a path) as a routing input;
* **imbalance** — a per-channel ``(balance_a − balance_b)/capacity`` cache
  refreshed via the store's per-channel version stamps, so untouched
  channels cost nothing on repeated probes.

:class:`~repro.engine.session.SimulationSession` ticks the plane once per
poll interval (:meth:`tick`), advancing the smoothed queue-depth signal.

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

#: Below this many serviced units a mark scan just loops: array dispatch
#: overhead exceeds the comparison work (same rationale as the PathTable's
#: ``_INCREMENTAL_MIN_HOPS``).
_SCAN_MIN = 4
#: Below this many candidate destinations the gradient weights loop.
_GRADIENT_MIN = 4


class CongestionState:
    """Flat per-channel congestion arrays (rows = cid, columns = side).

    Pure storage: every behaviour lives on :class:`ControlPlane`.  The
    price block (λ, µ, observation window, capacity rate) follows the
    normalised §5.3 duals; the marking block counts marks and serviced
    units per direction and keeps an EWMA of observed queueing delay; the
    queue block is the smoothed ``queue_depth`` signal advanced by
    :meth:`ControlPlane.tick`; the imbalance block caches
    ``(balance_a − balance_b)/capacity`` with the store stamp it was
    computed at.
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
        "delay_sum",
        "ewma_delay",
        "ewma_qdepth",
        "imbalance",
        "imb_stamp",
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
        self.delay_sum = np.zeros((n, 2))
        self.ewma_delay = np.zeros((n, 2))
        self.ewma_qdepth = np.zeros((n, 2))
        self.imbalance = np.zeros(n)
        self.imb_stamp = np.full(n, -1, dtype=np.int64)

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
        self.delay_sum = widen(self.delay_sum)
        self.ewma_delay = widen(self.ewma_delay)
        self.ewma_qdepth = widen(self.ewma_qdepth)
        self.imbalance = widen(self.imbalance)
        self.imb_stamp = widen(self.imb_stamp, -1)
        self.n = n


class ControlPlane:
    """Vectorised congestion signalling over one network's state store.

    Owned lazily by :class:`~repro.network.network.PaymentNetwork`
    (``network.control_plane``), exactly like the path table — the hop
    transport, the windowed/backpressure/primal-dual schemes and the
    metrics summary all read and write the same flat arrays.
    """

    def __init__(self, network: "PaymentNetwork", ewma_alpha: float = 0.2):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {ewma_alpha!r}")
        self._network = network
        self._store = network.state_store
        self.state = CongestionState(len(self._store))
        self.ewma_alpha = ewma_alpha
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

    def observe_path(self, path: Sequence[int], amount: float) -> None:
        """Record ``amount`` locked along every hop of ``path``.

        One compiled-path scatter over the path's direction ids (``d =
        2·cid + side`` indexes the row-major ``(n, 2)`` arrays flat; paths
        are trails, so directions are unique and a plain fancy-indexed add
        is exact).
        """
        cpath = self._network.path_table.compile(path)
        state = self._sync()
        state.window.reshape(-1)[cpath.dirs] += amount

    def path_price(self, path: Sequence[int]) -> float:
        """``z_p`` — the sum of directed hop prices along ``path``.

        A gather over the compiled path; the per-hop prices are summed
        left to right, as a per-hop loop would sum them.
        """
        cpath = self._network.path_table.compile(path)
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
        delay can exceed it — serviced/delay statistics still accrue).
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

        A batch of ``_SCAN_MIN`` or more units is scanned with one array
        comparison and its mean delay folded into the EWMA once; a smaller
        one loops — one branch, one counter update and one EWMA fold per
        unit.  Marks and counters are identical either way; only the EWMA
        delay diagnostic weights units inside one batch differently, which
        nothing metric-visible consumes.
        """
        count = len(delays)
        if not count:
            return 0
        state = self._sync()
        threshold = state.mark_threshold[cid, side]
        alpha = self.ewma_alpha
        newly = 0
        if count >= _SCAN_MIN:
            state.serviced[cid, side] += count
            batch = np.asarray(delays)
            late = batch > threshold
            if late.any():
                for index in np.flatnonzero(late).tolist():
                    unit = units[index]
                    if not unit.marked:
                        unit.marked = True
                        newly += 1
            state.marks[cid, side] += newly
            total_delay = float(batch.sum())
            state.delay_sum[cid, side] += total_delay
            previous = float(state.ewma_delay[cid, side])
            state.ewma_delay[cid, side] = previous + alpha * (
                total_delay / count - previous
            )
            return newly
        limit = float(threshold)
        for delay, unit in zip(delays, units):
            state.serviced[cid, side] += 1
            state.delay_sum[cid, side] += delay
            previous = float(state.ewma_delay[cid, side])
            state.ewma_delay[cid, side] = previous + alpha * (delay - previous)
            if delay > limit and not unit.marked:
                unit.marked = True
                newly += 1
                state.marks[cid, side] += 1
        return newly

    def mark_rate(self) -> float:
        """Marked fraction of all serviced hop-queue units (0 if none)."""
        serviced = int(self.state.serviced.sum())
        if not serviced:
            return 0.0
        return int(self.state.marks.sum()) / serviced

    # ------------------------------------------------------------------
    # Queue gradients
    # ------------------------------------------------------------------
    def queue_gradient(self, cids: np.ndarray, sides: np.ndarray) -> np.ndarray:
        """Per-hop queue-depth difference (sender minus receiver side).

        Positive where forwarding moves units *down* the congestion
        gradient — read live from the store's ``queue_depth`` arrays.
        """
        depth = self._store.queue_depth
        return depth[cids, sides] - depth[cids, 1 - sides]

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

    def path_queue_penalty(self, paths: Sequence[Sequence[int]]) -> List[float]:
        """Summed smoothed queue depth along each path (a routing bias).

        The signal the queue-gradient waterfilling variant subtracts from
        its bottleneck estimates: paths through already-backed-up router
        directions are deprioritised even when their balance headroom looks
        large.  Per-hop values come from ``ewma_qdepth`` (advanced once per
        session poll by :meth:`tick`) and are summed left to right.
        """
        flat = self._sync().ewma_qdepth.reshape(-1)
        table = self._network.path_table
        return [
            float(sum(flat[table.compile(path).dirs].tolist())) for path in paths
        ]

    # ------------------------------------------------------------------
    # Imbalance (stamp-cached)
    # ------------------------------------------------------------------
    def path_imbalance(self, cpath: "CompiledPath") -> float:
        """Mean signed ``(sender − receiver)/capacity`` along ``cpath``.

        Positive when sending on the path drains the fuller side of each
        channel — §4.1's rebalance score.  Reads a per-channel cache
        refreshed via the store's version stamps, so a probe over unchanged
        channels performs no balance arithmetic at all; flipping a cached
        value's sign for reverse-orientation hops is exact, so the result
        matches a direct balance gather bit for bit.
        """
        store = self._store
        dirs = cpath.dirs
        cids = dirs >> 1
        state = self._sync()
        stale = store.stamp[cids] > state.imb_stamp[cids]
        if stale.any():
            rows = cids[stale]
            state.imbalance[rows] = (
                store.balance[rows, 0] - store.balance[rows, 1]
            ) / store.capacity[rows]
            state.imb_stamp[rows] = store.stamp[rows]
        values = state.imbalance[cids]
        return float(np.where(dirs & 1, -values, values).mean())

    # ------------------------------------------------------------------
    # The session tick
    # ------------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> None:
        """Advance the smoothed congestion signals one control interval.

        Called by :class:`~repro.engine.session.SimulationSession` on every
        poll: folds the store's live ``queue_depth`` into ``ewma_qdepth``
        in one array op.
        """
        state = self._sync()
        depth = self._store.queue_depth_view
        state.ewma_qdepth += self.ewma_alpha * (depth - state.ewma_qdepth)
        self.ticks += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlPlane(channels={self.state.n}, ticks={self.ticks})"
        )
