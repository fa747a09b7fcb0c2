"""The simulation session: trace replay, unit transmission, settlement.

:class:`SimulationSession` executes the paper's evaluation semantics
(§6.1) on the integer-tick :class:`~repro.engine.events.TickEngine`, over
a network whose channel state lives in the flat arrays of a
:class:`~repro.engine.store.ChannelStateStore`:

* arriving payments are routed immediately if funds allow;
* routed value incurs a confirmation delay (0.5 s) during which the funds
  are held in-flight on every hop and unusable by anyone;
* non-atomic payments that cannot complete immediately wait in a global
  pending queue, polled periodically and scheduled by a pluggable policy
  (SRPT by default);
* atomic payments (the baselines) get exactly one attempt.

Routing schemes move money through one send core on compiled paths
(such as the pair handle's ``cpaths`` from
:meth:`~SimulationSession.path_handle`), whose two sends price hops with
fees and lock through one helper (:meth:`~SimulationSession._lock`):

* :meth:`SimulationSession.send_compiled` — lock one MTU-bounded
  transaction unit along a path (non-atomic schemes;
  :meth:`~SimulationSession.send_on_path` drains one path with it), and
* :meth:`SimulationSession.send_atomic` — lock a set of (path, amount)
  shares all-or-nothing (atomic schemes).

Settlement, refunds, deadline enforcement (the sender withholds the hash
key for units that would settle after the deadline — §4.1), metrics hooks
and fund-conservation checks all live here, so schemes stay pure policy.
Schemes that route on a transport (§4.2 in-network queues and the
windowed transport hop by hop, Celer-style gradients by backpressure)
build their :mod:`repro.engine.transport` layer for the session in
``make_transport`` — hop-by-hop forwarding then runs through the slab event
queue and writes live router queue depths into the store's
``queue_depth`` arrays — and a unit the transport delivers resolves here
too (:meth:`SimulationSession._resolve_unit`).  Every unit is one
:class:`~repro.core.payments.TransactionUnit` record from its lock to its
resolution: the send core books one per locked send, and a transport's
own units extend it.  Typical use::

    session = SimulationSession.from_config(config)
    metrics = session.run()
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.payments import Payment, PaymentState, TransactionUnit
from repro.core.scheduling import PendingHeap, get_policy
from repro.engine.clock import DEFAULT_QUANTUM
from repro.engine.dispatch import DispatchPlan
from repro.engine.events import TickEngine, TickTimer
from repro.engine.pathtable import CompiledPath
from repro.engine.transport import Transport
from repro.errors import ConfigError, InsufficientFundsError, SimulationError
from repro.metrics.collectors import ExperimentMetrics, MetricsCollector
from repro.network.network import PaymentNetwork
from repro.workload.generator import Trace, TransactionRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pathservice import PathService
    from repro.engine.pathtable import _ProbeCache
    from repro.experiments.config import ExperimentConfig
    from repro.routing.base import RoutingScheme

__all__ = ["RuntimeConfig", "SimulationSession"]

_EPS = 1e-9
#: A bulk build that leaves more GC-tracked objects than this behind ends
#: with one full collection (see :func:`_collector_paused`); smaller
#: sessions — every unit test — never pay for one.
_BULK_BUILD_OBJECTS = 100_000


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic collector around a bulk build.

    ``from_config`` and ``prepare()`` allocate hundreds of thousands of
    long-lived, cycle-free objects (records, channels, compiled paths,
    handles); the generational collector answers by re-walking that
    growing heap once per 700 allocations and finds nothing.  The
    collector's prior state is restored on the way out — it stays off for
    a caller who had it off.  A build that itself left more than
    ``_BULK_BUILD_OBJECTS`` tracked objects behind (the allocation
    counter's own delta) then runs **one** full collection, so the
    survivors reach the oldest generation in a single traversal instead
    of being aged through all three during the run.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    before = gc.get_count()[0]
    try:
        yield
    finally:
        # Read before re-enabling: the count's own tuple is an allocation.
        grown = gc.get_count()[0] - before
        if was_enabled:
            gc.enable()
            if grown > _BULK_BUILD_OBJECTS:
                gc.collect()


def _check_trace(trace: Trace) -> None:
    """Reject a trace no scheme can run: a payment to its own source, an
    arrival time that is NaN (it has no place in the arrival order), or two
    records sharing a ``txn_id`` (payments and the pending order are keyed
    by it, so one would silently replace the other).  Each check names the
    first offending row in trace order (the smallest repeated id)."""
    rows = np.flatnonzero(trace.source == trace.dest)
    if rows.size:
        txn_id, _, source, _, _, _ = trace.row(rows[0])
        raise ConfigError(
            f"transaction {txn_id!r} pays its own source "
            f"{source!r}; a payment needs two distinct endpoints"
        )
    rows = np.flatnonzero(np.isnan(trace.arrival_time))
    if rows.size:
        raise ConfigError(
            f"transaction {trace.row(rows[0])[0]!r} arrives at time nan; "
            "arrival times must be numbers"
        )
    # Sorted, a repeat sits next to its twin.
    ids = np.sort(trace.txn_id)
    rows = np.flatnonzero(ids[1:] == ids[:-1])
    if rows.size:
        raise ConfigError(
            f"transaction id {ids.item(rows[0] + 1)!r} appears more than once in the "
            "trace; ids must be unique"
        )


def check_fee_field(name: str, value: Optional[float]) -> None:
    """Reject a fee input (``base_fee``, ``fee_rate``, ``max_fee_fraction``)
    that is NaN, infinite or negative with a :class:`ConfigError` naming
    it; ``None`` (no fee budget) passes."""
    if value is not None and not 0.0 <= value < math.inf:
        raise ConfigError(f"{name} must be non-negative and finite, got {value!r}")


@dataclass
class RuntimeConfig:
    """Knobs of the execution environment (not of any routing scheme).

    Attributes
    ----------
    confirmation_delay:
        End-to-end delay Δ before a routed unit's funds are usable at the
        receiver (paper: 0.5 s).
    poll_interval:
        Period of the pending-queue poll.
    mtu:
        Maximum transaction-unit value.  ``inf`` disables splitting by size
        (units are then bounded only by path capacity and remaining value).
    scheduling_policy:
        Name from :data:`repro.core.scheduling.SCHEDULING_POLICIES`.
    end_time:
        Simulation cut-off in seconds (the paper stops at 200 s / 85 s).
        ``None`` runs until the last arrival plus ten confirmation delays.
    min_unit_value:
        Smallest unit worth sending; avoids floods of dust units.
    max_fee_fraction:
        §4.1's "maximum acceptable routing fee", as a fraction of each
        payment's amount (``None`` disables the budget).  Only relevant on
        networks with non-zero channel fees.
    check_invariants:
        Verify channel fund conservation after every resolution flush
        (slower; on by default in tests, off in large benchmarks).  The
        check runs after the store write and never changes how units
        resolve.
    """

    confirmation_delay: float = 0.5
    poll_interval: float = 0.5
    mtu: float = math.inf
    scheduling_policy: str = "srpt"
    end_time: Optional[float] = None
    min_unit_value: float = 1e-3
    max_fee_fraction: Optional[float] = None
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.confirmation_delay < 0:
            raise ConfigError(
                f"confirmation_delay must be non-negative, got {self.confirmation_delay!r}"
            )
        if self.poll_interval <= 0:
            raise ConfigError(f"poll_interval must be positive, got {self.poll_interval!r}")
        if self.mtu <= 0:
            raise ConfigError(f"mtu must be positive, got {self.mtu!r}")
        if self.min_unit_value <= 0:
            raise ConfigError(
                f"min_unit_value must be positive, got {self.min_unit_value!r}"
            )
        check_fee_field("max_fee_fraction", self.max_fee_fraction)
        get_policy(self.scheduling_policy)  # validate eagerly


class SimulationSession:
    """One simulation run of one scheme over one trace.

    Parameters
    ----------
    network:
        The payment network (mutated in place).
    records:
        The transaction trace: a :class:`~repro.workload.generator.Trace`
        or any sequence of records.  The session holds it as a
        :class:`~repro.workload.generator.Trace` (``self.records``),
        stably sorted by arrival time.
    scheme:
        A :class:`~repro.routing.base.RoutingScheme`.
    config:
        Execution parameters (:class:`RuntimeConfig`).
    collector:
        Optional custom metrics collector.
    quantum:
        Seconds per engine tick (float times only exist at this boundary).
    path_cache_dir:
        Optional directory for persistent path-discovery artifacts: the
        network's :class:`~repro.engine.pathservice.PathService` loads
        known pair path sets from it before the scheme prepares and
        writes newly discovered ones back when the run finishes.

    Same-tick attempt cohorts (arrival bursts, poll retries) drain through
    the macro-tick :class:`~repro.engine.dispatch.DispatchPlan`, which runs
    the scheme's own ``attempt`` per payment; schemes read their pairs'
    compiled handles through :meth:`path_handle`.
    """

    def __init__(
        self,
        network: PaymentNetwork,
        records: Sequence[TransactionRecord],
        scheme: "RoutingScheme",
        config: Optional[RuntimeConfig] = None,
        collector: Optional[MetricsCollector] = None,
        quantum: float = DEFAULT_QUANTUM,
        path_cache_dir: Optional[str] = None,
    ):
        self.network = network
        self.records = Trace.from_records(records).sorted_by_arrival()
        _check_trace(self.records)
        self.scheme = scheme
        self.config = config or RuntimeConfig()
        self.collector = collector or MetricsCollector()
        self.sim = TickEngine(quantum=quantum)
        self.payments: Dict[int, Payment] = {}
        self._policy = get_policy(self.config.scheduling_policy)
        #: Pending payments, incrementally ordered by the scheduling policy
        #: (replaces the per-poll full sort; see PendingHeap).
        self._pending = PendingHeap(self._policy)
        self._poll_timer: Optional[TickTimer] = None
        self.transport: Optional[Transport] = None  # built by the scheme in prepare()
        self._path_cache_dir = path_cache_dir
        self._finished = False
        self._prepared = False
        #: Macro-tick cohort driver; also the owner of the pair handles.
        self._dispatch = DispatchPlan(self)
        self._table = self._dispatch.table
        #: Path locks the send core (:meth:`_lock`) tried that bounced off a
        #: frozen or under-funded hop (see :meth:`dispatch_stats`).
        self._failed_locks = 0
        self._confirm_ticks = self.sim.clock.to_ticks(self.config.confirmation_delay)
        #: tick -> units resolving at that tick (coalesced store writes).
        self._resolve_batches: Dict[int, List[TransactionUnit]] = {}
        if self.config.end_time is not None:
            self._end_time = self.config.end_time
        elif len(self.records):
            self._end_time = (
                self.records.arrival_time.item(-1)
                + 10.0 * max(self.config.confirmation_delay, 0.1)
            )
        else:
            self._end_time = 0.0

    # ------------------------------------------------------------------
    # Construction from experiment configs
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: "ExperimentConfig",
        collector: Optional[MetricsCollector] = None,
        quantum: float = DEFAULT_QUANTUM,
        path_cache_dir: Optional[str] = None,
    ) -> "SimulationSession":
        """Build the session one :class:`ExperimentConfig` fully describes.

        Topology, workload and scheme are derived from the config's seed,
        never from the scheme, so traces are identical across schemes.
        The build runs with the cyclic garbage collector paused
        (:func:`_collector_paused`).
        """
        with _collector_paused():
            network, records, scheme = config.build_simulation_inputs()
            return cls(
                network,
                records,
                scheme,
                config.build_runtime_config(),
                collector=collector,
                quantum=quantum,
                path_cache_dir=path_cache_dir,
            )

    # ------------------------------------------------------------------
    # Public control
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    @property
    def end_time(self) -> float:
        """When this run stops."""
        return self._end_time

    @property
    def path_service(self) -> "PathService":
        """The session's shared path-discovery service (one per network).

        Schemes resolve their pair path sets through it in ``prepare``;
        see :mod:`repro.engine.pathservice`.
        """
        return self.network.path_service

    @property
    def events_processed(self) -> int:
        """Callbacks executed by the underlying engine so far."""
        return self.sim.events_processed

    def prepare(self) -> None:
        """Build transports, prepare the scheme and schedule the trace.

        Idempotent; :meth:`run` calls it automatically.  Calling it ahead
        of :meth:`run` splits one-time setup — transport construction,
        scheme preparation (path discovery, LP solves), trace scheduling —
        from the event loop, so benchmarks can time dispatch separately
        from discovery and long sweeps can front-load the shared work.
        Nothing here advances the simulated clock.

        The trace is bulk-scheduled via
        :meth:`TickEngine.schedule_many
        <repro.engine.events.TickEngine.schedule_many>` (same-tick arrival
        bursts coalesce into one cohort event each) and the pair path
        sets the trace needs are prefetched through the shared
        :class:`~repro.engine.pathservice.PathService` in one batched
        pass, instead of faulting in pair by pair on first attempt.

        Like :meth:`from_config`, the build runs with the cyclic garbage
        collector paused (:func:`_collector_paused`).
        """
        if self._prepared:
            return
        with _collector_paused():
            self._prepared = True
            if not len(self.records) and self.config.end_time is None:
                # Empty trace, no horizon: nothing can ever arrive.  run()
                # finalizes an empty run instead of arming machinery that
                # never fires.
                return
            if self._path_cache_dir is not None:
                # Load known path artifacts before the scheme prepares; newly
                # discovered pair sets are written back at the end of the run.
                self.network.path_service.persist_to(self._path_cache_dir)
            # Built before the trace is scheduled: a transport's timers must
            # order ahead of same-tick arrivals.
            self.transport = self.scheme.make_transport(self)
            self.scheme.prepare(self)
            self._prefetch_paths()
            self._schedule_trace_batched()
            self._poll_timer = self.sim.every(self.config.poll_interval, self._poll)

    def _prefetch_paths(self) -> None:
        """Warm every (source, dest) pair the trace will route, batched.

        Pure cache warm-up through the PathService (discovery is a
        deterministic function of the static topology, so prefetching
        cannot change any path set, only when it is computed); only
        schemes that declare a ``num_paths`` budget participate.
        """
        num_paths = getattr(self.scheme, "num_paths", None)
        if num_paths is None:
            return
        trace = self.records
        first, _ = trace.pair_groups(self._arrivals_in_run())
        rows = np.sort(first)  # the pairs in order of first arrival
        pairs = list(zip(trace.source[rows].tolist(), trace.dest[rows].tolist()))
        if pairs:
            self.network.path_service.view(k=num_paths).prepare(pairs)
            # Also pre-build the pairs' compiled handles (compiled paths +
            # probe caches) the schemes' attempts would otherwise fault in
            # pair by pair.
            self._dispatch.prime(pairs)

    def _arrivals_in_run(self) -> int:
        """How many rows of the (arrival-sorted) trace arrive by the end
        of the run; the rest are never scheduled."""
        return int(np.searchsorted(self.records.arrival_time, self._end_time, side="right"))

    def _schedule_trace_batched(self) -> None:
        """Schedule the trace in one slab append, coalescing same-tick
        arrival bursts into single cohort events.

        A lone arrival is ``_arrive(row)``, a burst ``_arrive_cohort(start,
        stop)`` over its rows.
        """
        count = self._arrivals_in_run()
        if not count:
            return
        ticks = self.sim.clock.to_ticks_many(self.records.arrival_time[:count])
        new_tick = np.ones(count, dtype=bool)
        new_tick[1:] = ticks[1:] != ticks[:-1]
        starts = np.flatnonzero(new_tick)
        args_list: List[tuple] = list(zip(starts.tolist()))
        # Bound once: each ``self._arrive`` mints a new method object.
        callbacks: List[Callable[..., None]] = [self._arrive] * len(starts)
        stops = np.append(starts[1:], count)
        arrive_cohort = self._arrive_cohort
        for group in np.flatnonzero(stops - starts > 1).tolist():
            callbacks[group] = arrive_cohort
            args_list[group] = (starts.item(group), stops.item(group))
        self.sim.schedule_many(ticks[starts].tolist(), callbacks, args_list)

    def run(self) -> ExperimentMetrics:
        """Execute the full trace and return the run's metrics.

        Schemes that build a transport (hop-by-hop queueing,
        backpressure) run through that :mod:`repro.engine.transport`
        layer.
        """
        if self._finished:
            raise RuntimeError("a SimulationSession runs exactly once")
        self._finished = True
        self.prepare()
        if not len(self.records) and self.config.end_time is None:
            return self.collector.finalize(
                scheme=self.scheme.name, network=self.network, duration=0.0
            )
        self.sim.run(until=self._end_time)
        self._finish()
        if self._path_cache_dir is not None:
            self.network.path_service.flush()
        control = self.network.peek_control_plane()
        if control is not None:
            # Congestion columns read straight off the control-plane arrays.
            self.collector.on_congestion_summary(
                control.mark_rate(), control.mean_price()
            )
        return self.collector.finalize(
            scheme=self.scheme.name, network=self.network, duration=self._end_time
        )

    def dispatch_stats(self) -> Dict[str, int]:
        """Dispatch counters for observability.

        Keys: ``cohorts`` (every attempt cohort driven), ``cohort_payments``
        (payments entering them) and ``failed_locks`` (path locks the send
        core tried — :meth:`send_compiled` units and :meth:`send_atomic`
        shares alike — that bounced off a frozen or under-funded hop: store
        work that moved no value).  The source-routed non-atomic schemes
        offer a path's fee-inclusive :meth:`PathTable.deliverable
        <repro.engine.pathtable.PathTable.deliverable>` value, so their
        locks fit; an atomic share sized off raw balances can still bounce
        on a fee-loaded upstream hop.
        ``batched_units`` and ``scalar_fallbacks`` always read 0 (every
        payment decides through the scheme's own ``attempt``); the keys
        stay because ``benchmarks/e2e`` reads them.  Deliberately *not*
        part of :class:`~repro.metrics.collectors.ExperimentMetrics`: they
        count how the run reached its decisions, not what it decided.
        """
        dispatch = self._dispatch
        return {
            "cohorts": dispatch.cohorts,
            "cohort_payments": dispatch.cohort_payments,
            "batched_units": 0,
            "scalar_fallbacks": 0,
            "failed_locks": self._failed_locks,
        }

    # ------------------------------------------------------------------
    # Scheme-facing primitives
    # ------------------------------------------------------------------
    def path_handle(
        self, source: int, dest: int, k: int
    ) -> Optional["_ProbeCache"]:
        """The compiled handle of the pair's ``k``-path set, or ``None`` if
        the pair is disconnected.

        ``handle.cpaths`` are the set's compiled paths (what
        :meth:`send_compiled` takes) and the handle itself is what
        :meth:`PathTable.bottleneck_many
        <repro.engine.pathtable.PathTable.bottleneck_many>` probes.  The
        trace's pairs were built in bulk by ``prepare()``
        (:meth:`DispatchPlan.prime
        <repro.engine.dispatch.DispatchPlan.prime>`); a pair first seen
        here goes through the same builder.
        """
        return self._dispatch.path_handle(source, dest, k)

    def send_compiled(
        self, payment: Payment, cpath: CompiledPath, amount: float
    ) -> bool:
        """Lock one transaction unit delivering ``amount`` along ``cpath``
        (for instance one of :meth:`path_handle`'s ``cpaths``).

        The amount is clipped to the payment's remaining value and the MTU;
        values below ``min_unit_value`` are not sent.  On fee-charging
        networks the upstream hops lock ``amount`` plus the intermediaries'
        fees (§2); units whose fee would blow the payment's ``max_fee``
        budget are not sent.  Per-hop amounts must be positive and finite
        (else :class:`~repro.errors.ChannelError`) and the store lock is
        all-or-nothing (:meth:`_lock`).  Returns ``True`` if the unit was
        locked (it will resolve after the confirmation delay).
        """
        config = self.config
        amount = min(amount, payment.remaining, config.mtu)
        if amount < config.min_unit_value:
            return False
        amounts = cpath.hop_amounts(amount)
        fee = amounts[0] - amount if amounts else 0.0
        if fee > 0 and not payment.fee_budget_allows(fee):
            return False
        actuals = self._lock(cpath, amounts)
        if actuals is None:
            return False
        payment.register_inflight(amount)
        self._book_unit(payment, cpath, amount, fee, actuals)
        return True

    def send_on_path(self, payment: Payment, cpath: CompiledPath) -> float:
        """Send as many units as fit on ``cpath`` right now.

        Convenience for non-atomic schemes: repeatedly offers
        :meth:`send_compiled` what the path delivers with its fees included
        (:meth:`PathTable.deliverable
        <repro.engine.pathtable.PathTable.deliverable>`), until that or the
        payment's remaining value is exhausted.  Returns the total value
        locked.
        """
        table = self._table
        min_unit = self.config.min_unit_value
        sent = 0.0
        while payment.remaining >= min_unit:
            amount = min(table.deliverable(cpath), payment.remaining, self.config.mtu)
            if amount < min_unit:
                break
            if not self.send_compiled(payment, cpath, amount):
                break
            sent += amount
        return sent

    def send_atomic(
        self,
        payment: Payment,
        shares: Sequence[Tuple[CompiledPath, float]],
    ) -> bool:
        """Lock ``shares`` all-or-nothing (AMP-style multi-path).

        Each ``(cpath, amount)`` share is priced once; the fees of all the
        shares together must fit the payment's budget.  Either every share
        locks — each becomes one unit and the whole payment settles after
        the confirmation delay — or the shares already locked are refunded
        and ``False`` is returned, leaving the payment as it was.  Shares
        summing to less than the payment's amount send nothing.
        """
        if sum(amount for _, amount in shares) < payment.amount - 1e-6:
            return False
        priced = [(cpath, amount, cpath.hop_amounts(amount)) for cpath, amount in shares]
        total_fee = 0.0
        for _, amount, amounts in priced:
            total_fee += amounts[0] - amount if amounts else 0.0
        if total_fee > 0 and not payment.fee_budget_allows(total_fee):
            return False
        locked: List[List[float]] = []
        for cpath, _, amounts in priced:
            actuals = self._lock(cpath, amounts)
            if actuals is None:
                store = self.network.state_store
                for (held, _, _), held_actuals in zip(priced, locked):
                    store.refund_path_funds(held.dir_list, held_actuals)
                return False
            locked.append(actuals)
        for (cpath, amount, amounts), actuals in zip(priced, locked):
            payment.register_inflight(amount)
            self._book_unit(payment, cpath, amount, amounts[0] - amount, actuals)
        return True

    def _lock(self, cpath: CompiledPath, amounts: List[float]) -> Optional[List[float]]:
        """The one store lock of every send: ``amounts`` on ``cpath``'s
        hops through :meth:`PathTable.lock_funds
        <repro.engine.pathtable.PathTable.lock_funds>`, returning the
        per-hop actuals, or ``None`` (counted in ``failed_locks``) when a
        frozen or under-funded hop bounced it and the store rolled back."""
        try:
            return self._table.lock_funds(cpath, amounts)
        except InsufficientFundsError:
            self._failed_locks += 1
            return None

    def fail_payment(self, payment: Payment) -> None:
        """Terminally fail a payment (atomic miss or scheme decision)."""
        if payment.is_terminal:
            return
        payment.mark_failed(self.sim.now)
        self._pending.discard(payment.payment_id)
        self.collector.on_payment_failed(payment, self.sim.now)

    # ------------------------------------------------------------------
    # Internal event handlers
    # ------------------------------------------------------------------
    def _new_payment(
        self,
        txn_id: int,
        arrival_time: float,
        source: int,
        dest: int,
        amount: float,
        deadline: Optional[float] = None,
    ) -> Payment:
        """Materialise one transaction (a trace row's fields, in
        :class:`TransactionRecord` order) as a pending payment (no
        attempt)."""
        max_fee = (
            self.config.max_fee_fraction * amount
            if self.config.max_fee_fraction is not None
            else None
        )
        payment = Payment(
            payment_id=txn_id,
            source=source,
            dest=dest,
            amount=amount,
            arrival_time=arrival_time,
            deadline=deadline,
            atomic=self.scheme.atomic,
            max_fee=max_fee,
        )
        self.payments[payment.payment_id] = payment
        self.collector.on_payment_arrival(payment)
        return payment

    def _arrive(self, row: int) -> None:
        payment = self._new_payment(*self.records.row(row))
        self._pending.add(payment)
        payment.attempts += 1
        self._dispatch.attempt_cohort((payment,))
        self._after_attempt(payment)

    def _arrive_cohort(self, start: int, stop: int) -> None:
        """Handle the arrival burst of trace rows ``[start, stop)``, which
        landed on one tick, as one cohort.

        Bookkeeping (payment creation, arrival hooks, pending
        registration, attempt counters) runs per row in trace order,
        then the first attempts drain through
        :meth:`DispatchPlan.attempt_cohort
        <repro.engine.dispatch.DispatchPlan.attempt_cohort>` so
        same-tick probes and locks batch.
        """
        row = self.records.row
        payments = [self._new_payment(*row(i)) for i in range(start, stop)]
        self._pending.add_many(payments)
        for payment in payments:
            payment.attempts += 1
        self._dispatch.attempt_cohort(payments)
        for payment in payments:
            self._after_attempt(payment)

    def _poll(self) -> None:
        control = self.network.peek_control_plane()
        if control is not None:
            control.tick(self.sim.now)
        if not self._pending:
            return
        now = self.sim.now
        # Triage the pending order first (each check reads only that
        # payment's own state, so collecting before attempting is
        # order-equivalent to attempting as we go), then push the eligible
        # cohort through the batched probe/lock pipeline.
        eligible: List[Payment] = []
        for pid in self._pending.ordered():
            payment = self.payments[pid]
            if payment.is_terminal:
                self._pending.discard(payment.payment_id)
                continue
            if payment.expired(now):
                self.fail_payment(payment)
                continue
            if self.scheme.atomic:
                continue
            if payment.remaining < self.config.min_unit_value:
                continue  # fully in flight; waiting on settlements
            payment.attempts += 1
            eligible.append(payment)
        if eligible:
            self._dispatch.attempt_cohort(eligible)
            for payment in eligible:
                self._after_attempt(payment)

    def _book_unit(
        self,
        payment: Payment,
        cpath: CompiledPath,
        amount: float,
        fee: float,
        actuals: List[float],
    ) -> None:
        """Turn one locked send into a :class:`TransactionUnit` holding its
        per-hop ``actuals``, resolving one confirmation delay from now (the
        payment has already registered ``amount`` in flight)."""
        self._schedule_resolve(TransactionUnit(payment, amount, cpath, actuals, fee))

    def _schedule_resolve(self, unit: TransactionUnit) -> None:
        """Register ``unit`` for resolution one confirmation delay from now.

        Units maturing at the same tick share one flush event and one
        batched store write instead of one event plus one per-hop settle
        each.
        """
        tick = self.sim.now_tick + self._confirm_ticks
        batch = self._resolve_batches.get(tick)
        if batch is None:
            self._resolve_batches[tick] = batch = [unit]
            self.sim.schedule_at_tick(tick, self._flush_resolutions, (tick,))
        else:
            batch.append(unit)

    def _flush_resolutions(self, tick: int) -> None:
        """Resolve every unit that matured at ``tick``.

        Payment accounting and collector hooks run per unit in scheduling
        order; the units' store writes are coalesced into a single ordered
        scatter-add
        (:meth:`~repro.engine.store.ChannelStateStore.apply_resolution_batch`),
        after which a ``check_invariants`` run checks conservation once.  A
        unit resolved before raises in its accounting, ahead of the write.
        """
        units = self._resolve_batches.pop(tick)
        if len(units) == 1:
            self._resolve_unit(units[0])
            return
        now = self.sim.now
        dirs: List[int] = []
        amounts: List[float] = []
        settled_parts: List[bool] = []
        hop_counts: List[int] = []
        for unit in units:
            settle = self._resolve_decision(unit, now)
            self._resolve_accounting(unit, now, settle)
            cpath = unit.cpath
            dirs.extend(cpath.dir_list)
            amounts.extend(unit.locked)
            settled_parts.append(settle)
            hop_counts.append(len(cpath))
        self.network.state_store.apply_resolution_batch(
            np.array(dirs, dtype=np.intp),
            np.array(amounts, dtype=np.float64),
            np.repeat(settled_parts, hop_counts),
        )
        if self.config.check_invariants:
            self.network.check_invariants()

    @staticmethod
    def _resolve_decision(unit: TransactionUnit, now: float) -> bool:
        """Whether a maturing unit settles (``True``) or refunds.

        §4.1: the sender withholds the hash key for units that would
        settle after the payment's deadline (and for failed atomic
        payments), cancelling them.  Computed exactly once per unit: the
        store write and the payment/collector bookkeeping both consume the
        same verdict.
        """
        payment = unit.payment
        withhold = payment.expired(now) and not payment.is_complete
        return not (
            withhold or payment.state is PaymentState.FAILED and payment.atomic
        )

    def _resolve_accounting(
        self, unit: TransactionUnit, now: float, settle: bool
    ) -> None:
        """Payment/collector bookkeeping for one maturing unit.

        ``settle`` is the :meth:`_resolve_decision` verdict; store writes
        are the caller's responsibility.  The unit's ``state`` flips first:
        a unit resolved before raises here, before any payment, collector
        or store update.
        """
        payment = unit.payment
        if not settle:
            unit.mark_cancelled()
            payment.register_cancelled(unit.amount)
            self.collector.on_unit_cancelled(unit, now)
            return
        unit.mark_settled()
        was_complete = payment.is_complete
        payment.register_settled(unit.amount, now)
        if unit.fee:
            payment.fees_paid += unit.fee
        self.collector.on_unit_settled(unit, now)
        if payment.is_complete and not was_complete:
            self._pending.discard(payment.payment_id)
            self.collector.on_payment_completed(payment, now)
        else:
            # Settlement moved the payment's outstanding value — the SRPT
            # scheduling key — so re-seat it in the pending order.
            self._pending.touch(payment)

    def _resolve_unit(self, unit: TransactionUnit) -> bool:
        """Settle or withhold one maturing unit now: the store write, the
        payment and collector bookkeeping and the conservation check.
        Returns the :meth:`_resolve_decision` verdict (``True``: settled).

        The one place a unit resolves on its own: a lone unit of a flush
        batch, and every unit a transport delivers (the transport's own
        record, whose ``locked`` amounts are the hops it locked).  The
        bookkeeping runs first, so a unit resolved before raises before the
        store is written.
        """
        now = self.sim.now
        settle = self._resolve_decision(unit, now)
        self._resolve_accounting(unit, now, settle)
        store = self.network.state_store
        if settle:
            store.settle_path_funds(unit.cpath.dir_list, unit.locked)
        else:
            store.refund_path_funds(unit.cpath.dir_list, unit.locked)
        if self.config.check_invariants:
            self.network.check_invariants()
        return settle

    def _after_attempt(self, payment: Payment) -> None:
        if payment.is_terminal:
            self._pending.discard(payment.payment_id)
        elif self.scheme.atomic and payment.inflight < _EPS:
            self.fail_payment(payment)

    def _finish(self) -> None:
        """Mark still-pending payments failed at the end of the run.

        Also asserts the run actually drained: no due event may remain in
        the slab queue — a truncated run that silently dropped in-flight
        units or matured-but-unflushed resolutions would skew every
        completion metric without failing anything.
        """
        if self.transport is not None:
            # Drain router queues first (refunds may complete nothing, but
            # they release in-flight value).
            self.transport.finish()
        now = self.sim.now
        for pid in list(self._pending):
            payment = self.payments[pid]
            if not payment.is_terminal:
                payment.mark_failed(now)
                self.collector.on_payment_failed(payment, now)
        self._pending.clear()
        if self._poll_timer is not None:
            self._poll_timer.stop()
        due = self.sim.queue.peek_tick()
        if due is not None and due <= self.sim.now_tick:
            raise SimulationError(
                f"session finished with a due event still queued at tick "
                f"{due} (now {self.sim.now_tick}); in-flight work was dropped"
            )
        for tick in self._resolve_batches:
            if tick <= self.sim.now_tick:
                raise SimulationError(
                    f"session finished with an unflushed resolution batch at "
                    f"tick {tick} (now {self.sim.now_tick})"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationSession(scheme={self.scheme.name!r}, "
            f"records={len(self.records)}, now={self.now:.6g})"
        )
