"""Hop-by-hop transports on the tick engine.

The paper's headline transport is §4.2's hop-by-hop transaction-unit
forwarding with in-router queues.  Two transports plug into
:class:`~repro.engine.session.SimulationSession`; a scheme that needs one
builds it in :meth:`RoutingScheme.make_transport
<repro.routing.base.RoutingScheme.make_transport>`:

:class:`HopByHopTransport`
    §4.2 in-network queues.  A :class:`HopUnit` locks
    funds one hop at a time through the slab event queue; a starved hop
    parks the unit in that channel direction's queue.  Queues are keyed by
    the direction's *store index* ``(channel id, side)``, and the store's
    ``queue_depth`` array is updated on every enqueue, service and timeout
    — routers, metrics collectors and schedulers all read the same flat
    arrays.  Queue timeouts are **lazily cancelled**: the timeout record
    always fires, and a unit that was serviced in the meantime is
    recognised by its generation counter and skipped — no O(n)
    ``deque.remove``, no handle bookkeeping on the hot path.

:class:`BackpressureTransport`
    Celer-style per-destination queue gradients, epoch-serviced on a
    tick-exact timer.  Its queues live per (node, destination) — not per
    channel direction — so backlog is reported through the collector's
    queue-depth hook rather than the store's directional arrays.

Neither transport settles a unit itself: both units
(:class:`HopUnit`, :class:`BackpressureUnit`) are
:class:`~repro.core.payments.TransactionUnit` records (the compiled path
plus the amount each hop locked), and one that reaches its destination is
handed as it is to :meth:`SimulationSession._resolve_unit
<repro.engine.session.SimulationSession._resolve_unit>` — the one place a
unit settles or is withheld, as source-routed units are, so metrics are
comparable across schemes.  The transports keep only the refunds of units
that never arrive (queue timeouts, backpressure expiry, the end-of-run
drain).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.payments import Payment, TransactionUnit, UnitState
from repro.engine.pathtable import CompiledPath
from repro.network.network import canonical_edge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.events import TickTimer
    from repro.engine.session import SimulationSession

__all__ = [
    "BackpressureTransport",
    "BackpressureUnit",
    "HopByHopTransport",
    "HopUnit",
    "Transport",
]

DirectionKey = int  # the store's hop address, d = 2*cid + side
_EPS = 1e-9


class HopUnit(TransactionUnit):
    """A transaction unit travelling hop-by-hop along ``cpath``.

    ``locked`` grows by one actual amount per hop as the unit advances and
    ``hop_index`` is the next hop to traverse, so every hop
    lock/settle/refund is a direct store-index operation on the compiled
    path.  The rest is router-queue state: when it parked, its enqueue
    generation (lazy timeout cancellation) and its congestion mark.  A
    unit that arrives is handed to the session as it is.
    """

    __slots__ = ("hop_index", "queued_at", "queue_seq", "marked")

    def __init__(self, payment: Payment, amount: float, cpath: CompiledPath) -> None:
        super().__init__(payment, amount, cpath, [])
        self.hop_index = 0  # next channel to lock: (path[i], path[i+1])
        self.queued_at: Optional[float] = None
        self.queue_seq = 0  # enqueue generation (lazy timeout cancellation)
        self.marked = False  # congestion mark (router queue delay, §4.1)

    @property
    def at_destination(self) -> bool:
        """Whether every hop has been locked."""
        return self.hop_index >= len(self.cpath.dir_list)


class BackpressureUnit(TransactionUnit):
    """One transaction unit drifting through the queue network.

    ``trail`` lists the nodes crossed so far (source first), ``dirs`` the
    store direction id of each hop and ``locked`` the amount each hop
    actually locked; a backtrack pops one entry from all three.  ``done``
    means arrived or expired.  ``cpath`` stays unset while the unit
    drifts: it is compiled from ``trail`` on arrival, and the unit then
    resolves in the session like any other.
    """

    __slots__ = (
        "dest",
        "node",
        "visited",
        "trail",
        "dirs",
        "parked_at",
        "steps",
        "done",
    )

    def __init__(self, payment: Payment, amount: float, now: float) -> None:
        self.payment = payment
        self.amount = amount
        self.locked = []
        self.fee = 0.0
        self.state = UnitState.INFLIGHT
        self.dest = payment.dest
        self.node = payment.source
        self.visited: Set[int] = {payment.source}
        self.trail: List[int] = [payment.source]
        self.dirs: List[int] = []
        self.parked_at = now
        self.steps = 0
        self.done = False

    @property
    def backtrack_target(self) -> Optional[int]:
        """The node a pop would return to, or ``None`` at the source."""
        return self.trail[-2] if self.dirs else None


class HopByHopTransport:
    """§4.2 in-network router queues, scheduled on the slab event queue.

    The model is described in :mod:`repro.core.queueing`; the mechanics:

    * per-direction queues are keyed by the store's direction id
      ``d = 2·cid + side`` (read off ``cpath.dir_list[hop_index]``) and
      the live depth is written straight into
      ``store.queue_depth[cid, side]``;
    * advances, settlements and timeouts go through the engine's raw-record
      fast path (no handle objects); a settlement resolves the unit in the
      session, then acks the scheme and services the directions it
      credited;
    * timeouts are lazy-cancelled via the unit's queue generation counter,
      and timed-out units stay in the deque as corpses that service skips.

    Parameters (on top of the session's :class:`RuntimeConfig`):

    hop_delay:
        Per-hop forwarding latency in seconds.
    queue_timeout:
        Maximum time a unit may sit in one router queue before its HTLCs
        are abandoned and refunded.
    mark_threshold:
        If set, a router marks any unit whose queueing delay exceeds this
        many seconds — the windowed transport's 1-bit congestion signal.
    """

    def __init__(
        self,
        session: "SimulationSession",
        hop_delay: float = 0.05,
        queue_timeout: float = 5.0,
        mark_threshold: Optional[float] = None,
    ) -> None:
        if hop_delay < 0:
            raise ValueError(f"hop_delay must be non-negative, got {hop_delay}")
        if queue_timeout <= 0:
            raise ValueError(f"queue_timeout must be positive, got {queue_timeout}")
        if mark_threshold is not None and mark_threshold < 0:
            raise ValueError(
                f"mark_threshold must be non-negative, got {mark_threshold}"
            )
        self.session = session
        self.network = session.network
        self.store = session.network.state_store
        self.sim = session.sim
        self.config = session.config
        self.collector = session.collector
        self.hop_delay = hop_delay
        #: Destination arrival to settlement of every hop: the same
        #: end-to-end pending period as a source-routed unit's.
        self.confirmation_delay = self.config.confirmation_delay
        self.queue_timeout = queue_timeout
        self.mark_threshold = mark_threshold
        #: Congestion signalling: thresholds, mark/serviced counters and
        #: delay EWMAs live on the network control plane, which scans each
        #: service batch in one vectorised comparison.
        self.control = session.network.control_plane
        self.control.configure_marking(mark_threshold)
        #: direction id -> parked units; timed-out corpses are popped lazily.
        self._queues: Dict[DirectionKey, Deque[HopUnit]] = {}
        self._draining = False  # end-of-run drain: no re-launches
        self.units_queued = 0
        self.units_timed_out = 0
        self.units_marked = 0
        #: Running total and count of serviced units' queueing delays
        #: (summed in service order, so the mean equals ``sum(delays) /
        #: len(delays)`` over the full list bit for bit).
        self.queue_delay_total = 0.0
        self.queue_delay_count = 0
        #: The end-to-end ack (with its congestion mark) of schemes that
        #: implement ``on_unit_resolved`` — the windowed transport's
        #: feedback channel.
        self._on_unit_resolved: Optional[Callable[[HopUnit, str, float], None]] = (
            getattr(session.scheme, "on_unit_resolved", None)
        )

    # ------------------------------------------------------------------
    # Scheme-facing primitive
    # ------------------------------------------------------------------
    def send_unit_hop_by_hop(
        self, payment: Payment, cpath: CompiledPath, amount: float
    ) -> bool:
        """Launch one unit along ``cpath`` that forwards hop by hop,
        queueing when starved.

        Succeeds as long as the *first* hop can lock — downstream scarcity
        parks the unit in a router queue rather than failing it.  Every hop
        operation is a direct store-array access on the compiled path.
        """
        unit = self.launch(payment, cpath, amount)
        if unit is None:
            return False  # source itself lacks funds; caller may queue/poll
        self._schedule_advance(unit)
        return True

    def launch(
        self, payment: Payment, cpath: CompiledPath, amount: float
    ) -> Optional[HopUnit]:
        """:meth:`send_unit_hop_by_hop` minus the scheduling: the unit
        with its first hop locked, or ``None``.

        The caller schedules what it launched with :meth:`advance_many` —
        order-exact as long as it schedules nothing else in between.
        """
        amount = min(amount, payment.remaining, self.config.mtu)
        if amount < self.config.min_unit_value:
            return None
        unit = HopUnit(payment, amount, cpath)
        if not self._try_lock_hop(unit):
            return None
        payment.register_inflight(amount)
        return unit

    # ------------------------------------------------------------------
    # Hop machinery
    # ------------------------------------------------------------------
    def _try_lock_hop(self, unit: HopUnit) -> bool:
        actual = self.store.try_lock(
            unit.cpath.dir_list[unit.hop_index], unit.amount
        )
        if actual < 0.0:
            return False
        unit.locked.append(actual)
        unit.hop_index += 1
        return True

    def _schedule_advance(self, unit: HopUnit) -> None:
        if unit.at_destination:
            self.sim.schedule_after(self.confirmation_delay, self._settle_unit, unit)
        else:
            self.sim.schedule_after(self.hop_delay, self._forward, unit)

    def advance_many(self, units: List[HopUnit]) -> None:
        """Schedule a service batch's advances as per-delay cohort events.

        Firing-order identical to per-unit :meth:`_schedule_advance`
        under two conditions the caller guarantees: the units were
        launched back to back with no interleaved schedule calls (their
        scalar advance events would occupy a contiguous seq run, so one
        cohort event in their place preserves order against every other
        event), and — enforced here — forwards and settles must land on
        *different* ticks to be split into separate cohorts.  When
        ``hop_delay`` and the confirmation delay round to the same tick and
        both kinds are present, splitting would reorder them against each
        other, so the batch falls back to per-unit scheduling.
        """
        if len(units) == 1:
            self._schedule_advance(units[0])
            return
        forwards: List[HopUnit] = []
        settles: List[HopUnit] = []
        for unit in units:
            (settles if unit.at_destination else forwards).append(unit)
        sim = self.sim
        if (
            forwards
            and settles
            and sim.delay_ticks(self.hop_delay)
            == sim.delay_ticks(self.confirmation_delay)
        ):
            for unit in units:
                self._schedule_advance(unit)
            return
        if forwards:
            if len(forwards) == 1:
                sim.schedule_after(self.hop_delay, self._forward, forwards[0])
            else:
                sim.schedule_after(
                    self.hop_delay, self._advance_cohort, tuple(forwards)
                )
        if settles:
            if len(settles) == 1:
                sim.schedule_after(
                    self.confirmation_delay, self._settle_unit, settles[0]
                )
            else:
                sim.schedule_after(
                    self.confirmation_delay, self._settle_cohort, tuple(settles)
                )

    def _advance_cohort(self, units: Tuple[HopUnit, ...]) -> None:
        for unit in units:
            self._forward(unit)

    def _settle_cohort(self, units: Tuple[HopUnit, ...]) -> None:
        for unit in units:
            self._settle_unit(unit)

    def _forward(self, unit: HopUnit) -> None:
        if unit.state is not UnitState.INFLIGHT:
            return
        if self._try_lock_hop(unit):
            self._schedule_advance(unit)
            return
        self._enqueue(unit)

    def _enqueue(self, unit: HopUnit) -> None:
        key = unit.cpath.dir_list[unit.hop_index]
        queue = self._queues.setdefault(key, deque())
        unit.queued_at = self.sim.now
        unit.queue_seq += 1
        queue.append(unit)
        self.units_queued += 1
        cid, side = key >> 1, key & 1
        depth = int(self.store.queue_depth[cid, side]) + 1
        # repro-lint: allow[RL003] queue_depth is router telemetry, not availability; probe caches never gather it
        self.store.queue_depth[cid, side] = depth
        self.collector.on_unit_queued(depth)
        self.sim.schedule_after(
            self.queue_timeout, self._timeout_unit, unit, unit.queue_seq
        )

    def _dequeue(self, key: DirectionKey) -> None:
        """Service the queue for store direction ``key`` while funds last."""
        if self._draining:
            # End-of-run drain: refunds from aborted units must not
            # relaunch queued units — the engine will never fire their
            # advance events, so a relaunch would strand funds in flight.
            return
        queue = self._queues.get(key)
        if not queue:
            return
        cid, side = key >> 1, key & 1
        store = self.store
        serviced: List[HopUnit] = []
        delays: List[float] = []
        launched: List[HopUnit] = []
        while queue:
            unit = queue[0]
            if unit.state is not UnitState.INFLIGHT:  # timed-out corpse
                queue.popleft()
                continue
            available = (
                0.0
                if store.frozen_count and store.frozen[cid]
                else float(store.balance_flat[key])
            )
            if available + _EPS < unit.amount:
                break
            queue.popleft()
            # repro-lint: allow[RL003] queue_depth is router telemetry, not availability; probe caches never gather it
            store.queue_depth[cid, side] -= 1
            # A unit parked in a queue always carries its enqueue time.
            delay = self.sim.now - unit.queued_at  # type: ignore[operator]
            self.queue_delay_total += delay
            self.queue_delay_count += 1
            serviced.append(unit)
            delays.append(delay)
            unit.queued_at = None
            if self._try_lock_hop(unit):  # pragma: no branch - funds checked above
                launched.append(unit)
        if launched:
            # The service loop scheduled nothing else, so its launches
            # occupy a contiguous seq run — coalescing them after the loop
            # preserves firing order exactly (see advance_many).
            self.advance_many(launched)
        if serviced:
            # One control-plane scan marks every late unit in the batch
            # (the marks are consumed later, at each unit's end-to-end
            # ack, so scanning after the service loop is equivalent to
            # the retired per-unit inline comparison).
            self.units_marked += self.control.observe_service(
                cid, side, delays, serviced
            )

    def _timeout_unit(self, unit: HopUnit, queue_seq: int) -> None:
        # Lazy cancel: the record always fires; a unit serviced (or even
        # re-queued at a later hop) since then carries a newer generation.
        if (
            unit.state is not UnitState.INFLIGHT
            or unit.queued_at is None
            or unit.queue_seq != queue_seq
        ):
            return
        d = unit.cpath.dir_list[unit.hop_index]
        # repro-lint: allow[RL003] queue_depth is router telemetry, not availability; probe caches never gather it
        self.store.queue_depth[d >> 1, d & 1] -= 1
        unit.queued_at = None
        self.units_timed_out += 1
        self._abort_unit(unit)  # the deque keeps a corpse; _dequeue skips it

    def _abort_unit(self, unit: HopUnit) -> None:
        """Refund all hops locked so far and release the payment value."""
        unit.mark_cancelled()
        store = self.store
        for d, amount in zip(unit.cpath.dir_list, unit.locked):
            store.apply_refund(d >> 1, d & 1, amount)
            self._dequeue(d)
        unit.payment.register_cancelled(unit.amount)
        if self.config.check_invariants:
            self.network.check_invariants()
        if self._on_unit_resolved is not None:
            self._on_unit_resolved(unit, "lost", self.sim.now)

    def _settle_unit(self, unit: HopUnit) -> None:
        settled = self.session._resolve_unit(unit)
        if self._on_unit_resolved is not None:
            self._on_unit_resolved(
                unit, "settled" if settled else "cancelled", self.sim.now
            )
        # Funds a settle credits to the receiving directions, or a withhold
        # refunds to the sending ones, may unblock units queued there.
        for d in unit.cpath.dir_list:
            self._dequeue(d ^ 1 if settled else d)

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Drain router queues at end of run, refunding stranded units."""
        self._draining = True
        for d, queue in list(self._queues.items()):
            while queue:
                unit = queue.popleft()
                if unit.state is not UnitState.INFLIGHT:
                    continue
                # repro-lint: allow[RL003] queue_depth is router telemetry, not availability; probe caches never gather it
                self.store.queue_depth[d >> 1, d & 1] -= 1
                unit.queued_at = None
                self._abort_unit(unit)

    @property
    def mean_queue_delay(self) -> float:
        """Average time a serviced unit spent queued at routers."""
        if not self.queue_delay_count:
            return 0.0
        return self.queue_delay_total / self.queue_delay_count


class BackpressureTransport:
    """Celer-style per-destination queue gradients on the tick engine.

    The model is described in :mod:`repro.routing.backpressure`: queues
    per (node, destination), a service epoch every ``service_interval``
    seconds on a tick-exact :class:`~repro.engine.events.TickTimer`,
    shortest-path-biased gradient weights, backtracking for stuck units.
    The epoch timer is armed on construction, which the session does
    before it schedules the trace, so an epoch fires ahead of same-tick
    arrivals.
    """

    def __init__(
        self,
        session: "SimulationSession",
        service_interval: float = 0.1,
        beta: float = 1.0,
        max_hops: int = 10,
        stuck_after: float = 1.0,
    ) -> None:
        if service_interval <= 0:
            raise ValueError(f"service_interval must be positive, got {service_interval}")
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        if max_hops <= 0:
            raise ValueError(f"max_hops must be positive, got {max_hops}")
        if stuck_after <= 0:
            raise ValueError(f"stuck_after must be positive, got {stuck_after}")
        self.session = session
        self.network = session.network
        self.store = session.network.state_store
        self.sim = session.sim
        self.config = session.config
        self.collector = session.collector
        self.service_interval = service_interval
        self.beta = beta
        self.max_hops = max_hops
        self.stuck_after = stuck_after
        self.confirmation_delay = self.config.confirmation_delay
        #: Gradient-weight kernel (vectorised over candidate destinations).
        self.control = session.network.control_plane
        #: node -> destination -> FIFO of parked units.
        self._queues: Dict[int, Dict[int, Deque[BackpressureUnit]]] = {}
        #: node -> destination -> queued value (the gradient signal).
        self._backlog: Dict[int, Dict[int, float]] = {}
        #: The network's CSR adjacency; distance rows are over its ranks.
        self._graph = self.network.graph()
        self._nodes = list(self.network.nodes())
        # The service epoch walks the channels in order, each from its
        # canonically-first endpoint: the direction served first.
        nodes = self._nodes
        flip = [
            canonical_edge(nodes[a], nodes[b])[0] != nodes[a]
            for a, b in self.network.endpoints.tolist()
        ]
        self._first_dirs = 2 * np.arange(len(flip), dtype=np.int64) + np.array(
            flip, dtype=np.int64
        )
        #: dest -> np.int64 hop-distance row over the graph's ranks (-1
        #: means unreachable), from one CSR level BFS per destination.
        self._dist_rows: Dict[int, np.ndarray] = {}
        #: (u, v, dests) -> (du, dv) int64 gathers.  Candidate destination
        #: sets recur heavily across service epochs (queues drain slowly
        #: relative to the epoch interval), so the per-direction gather is
        #: worth memoising; bounded and dropped wholesale on overflow.
        self._dir_dist_cache: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self.units_injected = 0
        self.units_expired = 0
        self.total_hops = 0
        self.total_pops = 0
        self._service_timer: "TickTimer" = self.sim.every(
            self.service_interval, self._service_epoch
        )

    # ------------------------------------------------------------------
    # Scheme-facing primitive
    # ------------------------------------------------------------------
    def inject(self, payment: Payment, amount: float) -> bool:
        """Park one unit of ``amount`` in the source's queue for routing."""
        amount = min(amount, payment.remaining, self.config.mtu)
        if amount < self.config.min_unit_value:
            return False
        source = self._graph.index.get(payment.source)
        if source is None or self._distance_row(payment.dest)[source] < 0:
            return False
        unit = BackpressureUnit(payment, amount, self.sim.now)
        payment.register_inflight(amount)
        self.units_injected += 1
        self._park(unit)
        return True

    def backlog(self, node: int, dest: int) -> float:
        """Queued value at ``node`` destined for ``dest``."""
        return self._backlog.get(node, {}).get(dest, 0.0)

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------
    def _park(self, unit: BackpressureUnit) -> None:
        node_queues = self._queues.setdefault(unit.node, {})
        queue = node_queues.setdefault(unit.dest, deque())
        queue.append(unit)
        unit.parked_at = self.sim.now
        backlog = self._backlog.setdefault(unit.node, {})
        backlog[unit.dest] = backlog.get(unit.dest, 0.0) + unit.amount
        self.collector.on_unit_queued(len(queue))

    def _unpark(self, unit: BackpressureUnit) -> None:
        self._queues[unit.node][unit.dest].remove(unit)
        backlog = self._backlog[unit.node]
        backlog[unit.dest] = max(0.0, backlog[unit.dest] - unit.amount)

    def _distance_row(self, dest: int) -> np.ndarray:
        """Hop distances to ``dest`` over the graph's ranks (-1 =
        unreachable)."""
        row = self._dist_rows.get(dest)
        if row is None:
            row = self._dist_rows[dest] = self._graph.hop_distances(dest)
        return row

    def _direction_distances(
        self, u: int, v: int, dests: List[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(dist to each dest from ``u``, from ``v``) as int64 gathers."""
        key = (u, v, tuple(dests))
        cached = self._dir_dist_cache.get(key)
        if cached is not None:
            return cached
        rows = [self._distance_row(dest) for dest in dests]
        iu = self._graph.index[u]
        iv = self._graph.index[v]
        du = np.fromiter((row[iu] for row in rows), dtype=np.int64, count=len(rows))
        dv = np.fromiter((row[iv] for row in rows), dtype=np.int64, count=len(rows))
        if len(self._dir_dist_cache) >= 4096:
            self._dir_dist_cache.clear()
        self._dir_dist_cache[key] = (du, dv)
        return du, dv

    # ------------------------------------------------------------------
    # The service epoch
    # ------------------------------------------------------------------
    def _service_epoch(self) -> None:
        nodes, first = self._nodes, self._first_dirs
        ends = self.network.endpoints.reshape(-1)  # direction d sends from ends[d]
        for d, a, b in zip(first.tolist(), ends[first].tolist(), ends[first ^ 1].tolist()):
            u, v = nodes[a], nodes[b]
            self._service_direction(u, v, d)
            self._service_direction(v, u, d ^ 1)

    def _service_direction(self, u: int, v: int, d: int) -> None:
        """Forward queued units across ``u→v`` down the steepest gradient.

        A drained direction is still served: a stuck unit's pop back to
        ``v`` refunds its last lock and needs no funds on ``u→v``."""
        node_queues = self._queues.get(u)
        if not node_queues:
            return
        while True:
            available = self.store.available(d)
            dests = [dest for dest, queue in node_queues.items() if queue]
            weights = self._gradient_weights(u, v, dests)
            candidates = [(w, dest) for w, dest in zip(weights, dests) if w > _EPS]
            candidates.sort(reverse=True)
            unit = None
            for _, dest in candidates:
                unit = self._eligible_unit(node_queues[dest], v, available)
                if unit is not None:
                    break
            if unit is None:
                # Every positive-gradient unit either already visited v or
                # exceeds the direction's spendable funds.
                return
            self._forward(unit, v, d)

    def _gradient_weights(self, u: int, v: int, dests: List[int]) -> List[float]:
        """Service weights of every candidate destination across ``u→v``.

        The backlog gathers stay dict-driven (queues are sparse); the hop
        distances come from cached int64 rows
        (:meth:`_direction_distances`) instead of per-destination dict
        walks, and the gradient arithmetic runs through the control
        plane's kernel — one vectorised expression over the whole
        candidate batch.
        """
        if not dests:
            return []
        backlog_u = [self.backlog(u, dest) for dest in dests]
        backlog_v = [self.backlog(v, dest) for dest in dests]
        dist_u, dist_v = self._direction_distances(u, v, dests)
        return self.control.gradient_weights(
            backlog_u, backlog_v, dist_u, dist_v, self.beta
        )

    def _eligible_unit(
        self, queue: Deque[BackpressureUnit], v: int, available: float
    ) -> Optional[BackpressureUnit]:
        now = self.sim.now
        for unit in queue:
            if v not in unit.visited and unit.amount <= available + _EPS:
                return unit
            if (
                v == unit.backtrack_target
                and now - unit.parked_at >= self.stuck_after
            ):
                return unit  # stuck: pop backward (refunds, needs no funds)
        return None

    def _forward(self, unit: BackpressureUnit, v: int, d: int) -> None:
        self._unpark(unit)
        unit.steps += 1
        if v in unit.visited:
            self._pop_hop(unit, v)
        elif not self._push_hop(unit, v, d):
            self._park(unit)  # the lock raced away; retry next epoch
            return
        if unit.done:
            return  # reached the destination; settlement is scheduled
        if (
            len(unit.dirs) >= self.max_hops
            or unit.steps >= 3 * self.max_hops
            or unit.payment.expired(self.sim.now)
            # Popped back to its source with every neighbour visited: it can
            # neither press forward nor pop, so release its value for the
            # payment to re-inject.
            or (
                not unit.dirs
                and unit.visited.issuperset(self.network.neighbors(unit.node))
            )
        ):
            self._expire_unit(unit)
        else:
            self._park(unit)

    def _push_hop(self, unit: BackpressureUnit, v: int, d: int) -> bool:
        actual = self.store.try_lock(d, unit.amount)
        if actual < 0.0:  # pragma: no cover - availability checked
            return False
        unit.dirs.append(d)
        unit.locked.append(actual)
        unit.trail.append(v)
        unit.node = v
        unit.visited.add(v)
        self.total_hops += 1
        if v == unit.dest:
            unit.done = True
            unit.cpath = self.network.path_table.compile(tuple(unit.trail))
            # The session settles it (or withholds the key) when it matures.
            self.sim.schedule_after(
                self.confirmation_delay, self.session._resolve_unit, unit
            )
        return True

    def _pop_hop(self, unit: BackpressureUnit, v: int) -> None:
        """Backtrack: undo the last hop, refunding its lock."""
        if unit.backtrack_target != v:
            raise AssertionError(
                f"pop to {v} but the unit came from {unit.backtrack_target}"
            )
        d = unit.dirs.pop()
        self.store.apply_refund(d >> 1, d & 1, unit.locked.pop())
        unit.trail.pop()
        unit.node = v
        self.total_pops += 1

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _expire_unit(self, unit: BackpressureUnit) -> None:
        """TTL hit or payment dead: unwind every locked hop."""
        unit.done = True
        unit.mark_cancelled()
        self.units_expired += 1
        self.store.refund_path_funds(unit.dirs, unit.locked)
        unit.payment.register_cancelled(unit.amount)
        if self.config.check_invariants:
            self.network.check_invariants()

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Refund every still-parked unit and stop the epoch timer."""
        # repro-lint: allow[RL002] int-node-keyed dict filled in deterministic event order; drain order is replay-stable
        for node_queues in self._queues.values():
            # repro-lint: allow[RL002] same argument: per-node neighbour dict, insertion follows deterministic event order
            for queue in node_queues.values():
                while queue:
                    self._expire_unit(queue.popleft())
        self._backlog.clear()
        self._service_timer.stop()


#: What a scheme's ``make_transport`` builds and the session holds.
Transport = Union[HopByHopTransport, BackpressureTransport]
