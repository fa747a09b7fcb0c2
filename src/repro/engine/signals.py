"""The congestion control plane: one array-backed home for every signal.

Spider's closed loop (§4.2–§4.3) is driven by router congestion state —
queueing-delay marks that shrink per-path windows, and per-channel prices in
the fluid/primal-dual view.  Before this module those signals were scattered
across three disconnected mechanisms: per-unit timestamp marking inside the
hop transport, a dict-of-objects price table in :mod:`repro.core.prices`,
and ad-hoc gradient math in the backpressure service epoch — while the
store's live ``queue_depth`` arrays were only ever read by metrics.

:class:`ControlPlane` centralises them over the
:class:`~repro.engine.store.ChannelStateStore`:

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

Mirroring the :class:`~repro.engine.pathtable.PathTable` pattern, the
scalar implementations remain behind ``ControlPlane.vectorized_signals =
False`` as the parity baseline: with the flag off, the price table keeps
its per-channel objects, the transport's mark decisions run per unit, and
every batch helper here falls back to the per-element loop — the
vectorised kernels are pinned against them float for float by
``tests/engine/test_signals.py`` and the determinism suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence

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
    transport, the windowed/backpressure schemes, the price table and the
    metrics summary all read and write the same flat arrays.
    """

    #: Class-wide default for new planes: run the batch operations through
    #: the vectorised kernels.  The per-element implementations remain
    #: behind ``vectorized_signals = False`` — they are the parity baseline
    #: the kernels are tested against (the PathTable pattern).
    vectorized_signals: bool = True

    def __init__(self, network: "PaymentNetwork", ewma_alpha: float = 0.2):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {ewma_alpha!r}")
        self._network = network
        self._store = network.state_store
        self.vectorized = type(self).vectorized_signals
        self.state = CongestionState(len(self._store))
        self.ewma_alpha = ewma_alpha
        self.prices_configured = False
        self._delta: Optional[float] = None
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

        ``capacity_rate = capacity / delta`` normalises the dual steps the
        same way :class:`~repro.core.prices.ChannelPriceState` does, so one
        set of step sizes works across capacity scales.
        """
        if delta <= 0:
            raise ConfigError(f"delta must be positive, got {delta!r}")
        state = self._sync()
        self._delta = float(delta)
        state.capacity_rate[:] = self._store.capacity_view / delta
        state.lam[:] = 0.0
        state.mu[:] = 0.0
        state.window[:] = 0.0
        self.prices_configured = True

    def observe_path(self, path: Sequence[int], amount: float) -> None:
        """Record ``amount`` locked along every hop of ``path``.

        One compiled-path scatter over the path's direction ids (``d =
        2·cid + side`` indexes the row-major ``(n, 2)`` arrays flat; paths
        are trails, so directions are unique and a plain fancy-indexed add
        is exact).
        """
        cpath = self._network.path_table.compile(path)
        state = self._sync()
        if self.vectorized:
            state.window.reshape(-1)[cpath.dirs] += amount
            return
        for d in cpath.dir_list:
            state.window[d >> 1, d & 1] += amount

    def observe_hop(self, u: Hashable, v: Hashable, amount: float) -> None:
        """Record ``amount`` locked in the ``u → v`` direction."""
        cid, side = self._network.channel_id(u, v)
        state = self._sync()
        state.window[cid, side] += amount

    def hop_price(self, u: Hashable, v: Hashable) -> float:
        """Directed price ``z_(u,v) = λ + µ_(u,v) − µ_(v,u)``."""
        cid, side = self._network.channel_id(u, v)
        state = self._sync()
        return float(
            state.lam[cid] + state.mu[cid, side] - state.mu[cid, 1 - side]
        )

    def path_price(self, path: Sequence[int]) -> float:
        """``z_p`` — the sum of directed hop prices along ``path``.

        A gather over the compiled path; the per-hop prices are summed
        left to right so the result is bit-identical to the scalar
        per-state loop it replaces.
        """
        cpath = self._network.path_table.compile(path)
        if len(cpath) == 0:
            return 0.0
        state = self._sync()
        if self.vectorized:
            mu = state.mu.reshape(-1)
            values = state.lam[cpath.dirs >> 1] + mu[cpath.dirs] - mu[cpath.dirs ^ 1]
            return float(sum(values.tolist()))
        total = 0.0
        for d in cpath.dir_list:
            cid, side = d >> 1, d & 1
            total += float(
                state.lam[cid] + state.mu[cid, side] - state.mu[cid, 1 - side]
            )
        return total

    def update_prices(self, dt: float, eta: float, kappa: float) -> None:
        """One dual step on every channel — a handful of array ops.

        Replaces the per-object ``PriceTable.update_all`` loop; every
        elementwise operation mirrors
        :meth:`~repro.core.prices.ChannelPriceState.update` in the same
        order, so the resulting λ/µ are float-for-float identical to the
        scalar baseline (orientation does not matter: the λ step is
        commutative in the two directed rates and the µ steps are exact
        negations of each other).
        """
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt!r}")
        state = self._sync()
        if self.vectorized:
            rates = state.window / dt
            scale = np.maximum(state.capacity_rate, 1e-9)
            total = rates[:, 0] + rates[:, 1]
            state.lam = np.maximum(0.0, state.lam + eta * (total / scale - 1.0))
            imbalance = (rates[:, 0] - rates[:, 1]) / scale
            step = kappa * imbalance
            state.mu[:, 0] = np.maximum(0.0, state.mu[:, 0] + step)
            state.mu[:, 1] = np.maximum(0.0, state.mu[:, 1] - step)
            state.window[:] = 0.0
        else:
            for cid in range(state.n):
                rate_a = float(state.window[cid, 0]) / dt
                rate_b = float(state.window[cid, 1]) / dt
                scale = max(float(state.capacity_rate[cid]), 1e-9)
                state.lam[cid] = max(
                    0.0,
                    float(state.lam[cid]) + eta * ((rate_a + rate_b) / scale - 1.0),
                )
                imbalance = (rate_a - rate_b) / scale
                state.mu[cid, 0] = max(
                    0.0, float(state.mu[cid, 0]) + kappa * imbalance
                )
                state.mu[cid, 1] = max(
                    0.0, float(state.mu[cid, 1]) - kappa * imbalance
                )
                state.window[cid, 0] = 0.0
                state.window[cid, 1] = 0.0
        self.record_price_sample(
            float(np.mean(state.lam)) if state.n else 0.0
        )

    def record_price_sample(self, value: float) -> None:
        """Log one mean-λ sample (called once per price update)."""
        self.price_samples.append(float(value))

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

        Vectorised mode scans the whole batch with one array comparison
        and folds the batch's mean delay into the EWMA once; the scalar
        baseline is the retired per-unit path — one branch, one counter
        update and one EWMA fold per serviced unit.  Marks and counters
        are identical between the modes (pinned by the parity tests); only
        the EWMA delay diagnostic differs in how it weights units inside
        one batch, which nothing metric-visible consumes.
        """
        count = len(delays)
        if not count:
            return 0
        state = self._sync()
        threshold = state.mark_threshold[cid, side]
        alpha = self.ewma_alpha
        newly = 0
        if self.vectorized and count >= _SCAN_MIN:
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
        vectorised expression instead of a per-destination Python call.
        A negative distance encodes "unreachable" and zeroes the weight,
        matching the scalar early return.

        ``dist_from`` / ``dist_to`` accept plain int sequences or int64
        ndarrays — the backpressure transport hands over its cached
        distance-row gathers directly, so the vectorised branch pays no
        conversion and the scalar branch iterates int64 scalars whose
        float arithmetic is value-identical to Python ints.
        """
        if self.vectorized and len(backlog_from) >= _GRADIENT_MIN:
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
        session poll by :meth:`tick`) and are summed left to right in both
        modes, so the two implementations agree bit for bit.
        """
        state = self._sync()
        smoothed = state.ewma_qdepth
        out: List[float] = []
        if self.vectorized:
            table = self._network.path_table
            flat = smoothed.reshape(-1)
            for path in paths:
                out.append(float(sum(flat[table.compile(path).dirs].tolist())))
            return out
        network = self._network
        for path in paths:
            total = 0.0
            for a, b in zip(path, path[1:]):
                cid, side = network.channel_id(a, b)
                total += float(smoothed[cid, side])
            out.append(total)
        return out

    # ------------------------------------------------------------------
    # Imbalance (stamp-cached)
    # ------------------------------------------------------------------
    def path_imbalance(self, cpath: "CompiledPath") -> float:
        """Mean signed ``(sender − receiver)/capacity`` along ``cpath``.

        Positive when sending on the path drains the fuller side of each
        channel — §4.1's rebalance score.  The vectorised mode reads a
        per-channel cache refreshed via the store's version stamps, so a
        probe over unchanged channels performs no balance arithmetic at
        all; flipping a cached value's sign for reverse-orientation hops is
        exact, so the result matches the direct gather bit for bit.
        """
        store = self._store
        dirs = cpath.dirs
        cids = dirs >> 1
        if not self.vectorized:
            balance = store.balance_flat
            spread = balance[dirs] - balance[dirs ^ 1]
            return float((spread / store.capacity[cids]).mean())
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
        (one array op; the scalar baseline loops the identical update).
        """
        state = self._sync()
        depth = self._store.queue_depth_view
        alpha = self.ewma_alpha
        if self.vectorized:
            state.ewma_qdepth += alpha * (depth - state.ewma_qdepth)
        else:
            smoothed = state.ewma_qdepth
            for cid in range(state.n):
                for side in (0, 1):
                    previous = float(smoothed[cid, side])
                    smoothed[cid, side] = previous + alpha * (
                        float(depth[cid, side]) - previous
                    )
        self.ticks += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlPlane(channels={self.state.n}, "
            f"vectorized={self.vectorized}, ticks={self.ticks})"
        )
