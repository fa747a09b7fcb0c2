"""Macro-tick batched dispatch: cohort kernels over the poll loop.

The session's ``_poll`` (and same-tick arrival bursts) hand the whole
cohort of attempt-eligible payments to :class:`DispatchPlan` at once.
The reference is the **sequential loop**: the scheme's own ``attempt``
per payment, in cohort order, each committing its locks eagerly.  That is
what the plan runs for every scheme and network except two, where a
benchmark workload shows a cohort *replay* pays:

* **Waterfilling on a network where some channel charges a fee**
  (``ripple-full-fees-warm``: the sequential loop read 1.26× in wall
  time, 6.83 vs 5.43 s).  Fee-loaded hops make eager locks bounce, and
  each bounce costs the sequential loop a lock, a rollback and a
  re-probe through the store.
* **The spider-window launch loop** (``isp-window``: 1.15×, and still
  1.07–1.10× with one ``advance_many`` per cohort): its launches land
  through one ``lock_many`` and one
  :meth:`HopByHopTransport.advance_many
  <repro.engine.transport.HopByHopTransport.advance_many>`.

Fee-free waterfilling, shortest-path and LND measured no faster replayed
than through their own ``attempt``, so they have no replay.  Which of the
two applies is worked out once per session, at :meth:`DispatchPlan.prime`
or the first cohort, from the scheme's ``cohort_rule`` and the channels'
fee schedules.

A replay

1. **probes** every payment's candidate path set with one grouped gather —
   :meth:`PathTable.refresh_probes <repro.engine.pathtable.PathTable.refresh_probes>`
   concatenates the cohort's stale probe caches and runs a single
   ``availability`` gather + ``minimum.reduceat`` over all of them (the
   window rule skips this step: it reads first hops through the overlay
   and never reads a probe value);
2. **replays** the scheme's decision rule per payment against the cached
   estimates plus a **residual-state overlay** (below), staging accepted
   sends into struct-of-arrays buffers (payment refs, compiled paths,
   per-hop fee-inclusive amounts);
3. **executes** the staged cohort through
   :meth:`ChannelStateStore.lock_many
   <repro.engine.store.ChannelStateStore.lock_many>` — one call over the
   concatenated hop direction ids, applied per hop in decision order —
   then materialises the :class:`~repro.engine.pathtable.PathLock`
   units and registers them with the session's tick-coalesced resolution
   batches (one reschedule per cohort, not per unit).

Byte-identity with the sequential loop is a proved invariant, not a hope
(the dispatch tests run both replays both ways).  The proof rests on four
pillars:

* **Residual replay.**  The plan keeps an overlay of *residual* channel
  state per hop direction ``d = 2·cid + side`` (the store's hop address,
  see :class:`~repro.engine.store.ChannelStateStore`; the channel row is
  ``d >> 1``) as three Python columns — ``bal``, ``infl``, ``sent``,
  dicts of plain floats keyed by ``d`` — equal to the live store values
  with every staged operation applied in decision order, using the same
  float64 arithmetic the store would use (a Python float *is* an
  IEEE-754 double, and its ops are deterministic functions of their
  operand bits, so replaying the identical op sequence yields identical
  bits).  For waterfilling ``bal`` is **seeded**: the first replay of a
  cohort reads the balance of every direction the cohort's path sets
  cover with one ``balance_flat[dirs].tolist()`` gather, and from there
  to the flush every staged send is booked as it is staged, so a probe,
  bottleneck or lock-feasibility check is a dict lookup, a
  ``min(map(bal.__getitem__, dir_list))`` or a float comparison —
  returning exactly what the sequential loop, which commits each
  operation eagerly, would have read from the live store at that
  payment's turn.  The window rule reads first hops only, so ``bal``
  fills lazily there, one live read per direction on first use.
  ``infl``/``sent`` are opened only for directions a lock writes.  NumPy
  appears at the cohort boundary alone: the seed gather, and the flush.
  A seeded balance is only as good as the store is still: every flush
  drops the overlay, and a store version the cohort probe did not see
  (a fallback's ``attempt``, an out-of-band mutation) drops it before
  the next replay, which re-gathers.  Estimates for paths whose channels
  carry staged traffic are re-derived from the overlay before a
  payment's replay starts; all other paths' probe values are live by
  construction.
* **Fee-aware staging.**  Per-hop lock amounts come from
  :meth:`CompiledPath.hop_amounts
  <repro.engine.pathtable.CompiledPath.hop_amounts>` — the *same* reverse
  fee recurrence ``send_unit`` calls — and the eager lock's
  semantics are replicated comparison for comparison:
  feasibility is ``amount <= balance + 1e-9`` on an unfrozen hop, the
  booked actual is ``min(amount, balance)`` (the store's own clamp), and
  the staged per-hop actuals flow unchanged into one ``lock_many`` call
  whose in-order per-hop writes match the eager per-send locks.
  ``send_unit`` vetoes with *no* store side effects (dust clamps, fee-budget
  rejections) are replayed inline — including waterfilling's
  fresh-bottleneck re-probe — because an overlay read *is* the fresh
  probe.
* **Failed locks replay too.**  A fee-loaded first hop routinely makes
  the eager lock *fail* mid-attempt — and
  :meth:`ChannelStateStore.lock_path_funds
  <repro.engine.store.ChannelStateStore.lock_path_funds>`'s failure is
  not traceless: hops before the failing one round-trip their balance
  through ``(b - a) + a`` and their inflight through ``(i + a) - a``
  (bit-changing in general), grow ``sent`` and tick ``num_refunded``.
  Those effects are pure float/int arithmetic on values the columns
  already hold, so the replay applies them there and keeps going exactly
  as the scheme's retry logic would (``replayed_locks``/``failed_locks``
  in :meth:`SimulationSession.dispatch_stats
  <repro.engine.session.SimulationSession.dispatch_stats>` count them).
  A flush containing failed locks cannot be a plain ``lock_many`` — no
  sum of deltas reproduces a round-trip — so it still writes the tracked
  final values back verbatim, bit-identical to the eager op sequence *by
  construction*: the key set of ``sent`` is the write set, and the three
  columns land with one fancy-index assignment each, the
  ``num_refunded`` deltas with them.
* **Exact fallback.**  Whatever cannot be replayed falls back: staged
  sends flush first, then the scheme's own ``attempt`` runs against live
  state, exactly as the sequential loop would have at that payment's
  turn.  This is reduced to degenerate path sets (no probe) and
  non-finite lock amounts (where ``lock_path`` raises ``ChannelError``).
  As a backstop for waterfilling, a payment whose probe is older than
  the store's version stamp — the store moved mid-cohort — lands what is
  staged, drops the overlay and re-probes before it replays.

**Profiles are built in bulk.**  A replay works off one
:class:`_PairProfile` per (source, dest) pair — its probe handle,
compiled paths and every hop's channel row (``cids``).
:meth:`DispatchPlan.prime` builds them for every pair of the trace during
the untimed ``prepare()``: one
:meth:`PathTable.compile_many <repro.engine.pathtable.PathTable.compile_many>`
over all their paths (a batch kernel filling the path arena) and one
probe view per pair.  The per-path channel sets the overlay needs are
only built for a pair once staged traffic actually lands on its channels.
A pair first seen mid-run goes through the same builder as a batch of
one.  For a scheme that decides through its own ``attempt``, ``prime``
warms the same compile and probe caches the sequential path reads and
builds no profile.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

import numpy as np

from repro.core.payments import Payment, TransactionUnit
from repro.core.queueing import HopUnit
from repro.engine.pathtable import PathLock
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.window_control import PathWindow
    from repro.engine.pathtable import CompiledPath, _ProbeCache
    from repro.engine.session import SimulationSession

__all__ = ["DispatchPlan"]

#: Decision rules the batched driver can replay byte-identically.
_BATCH_RULES = frozenset({"waterfilling", "spider-window"})


class _PairProfile:
    """Static dispatch facts about one (source, dest) pair's path set.

    A pair replays when it has a real ``probe`` (every path has at least
    one hop); ``None`` sends it to the scheme's own ``attempt``.  ``cids``
    is every hop's channel row (what a cohort's touched set is
    tested against); the per-path ``path_cid_sets`` are only built once
    staged traffic actually lands on one of them (``None`` until then).
    ``windows`` is the spider-window scheme's
    :class:`~repro.core.window_control.PathWindow` per path, aligned with
    ``cpaths`` — fetched through ``scheme.window`` on the pair's first
    window replay (``None`` until then); the scheme never replaces a
    path's state object, so holding it is the same as looking it up.
    """

    __slots__ = (
        "probe",
        "cpaths",
        "cids",
        "path_cid_sets",
        "windows",
    )

    def __init__(self) -> None:
        self.probe: Optional[_ProbeCache] = None
        self.cpaths: List[CompiledPath] = []
        self.cids: Tuple[int, ...] = ()
        self.path_cid_sets: Optional[List[FrozenSet[int]]] = None
        self.windows: Optional[List["PathWindow"]] = None


class DispatchPlan:
    """Cohort staging buffers + batched kernels for one session."""

    def __init__(self, session: "SimulationSession"):
        self.session = session
        self.store = session.network.state_store
        self.table = session.network.path_table
        self._profiles: Dict[Tuple[int, int], _PairProfile] = {}
        #: The replay this session's cohorts run (``None``: the scheme's
        #: own ``attempt``), once :meth:`_replay_rule` has worked it out.
        self._rule: Optional[str] = None
        self._rule_decided = False
        # Struct-of-arrays staging: parallel lists appended in decision
        # order, flushed through one ``lock_many``.
        self._staged_payments: List[Payment] = []
        self._staged_cpaths: List[CompiledPath] = []
        self._staged_amounts: List[float] = []
        self._staged_fees: List[float] = []
        self._staged_hop_amounts: List[List[float]] = []
        #: Hop-by-hop unit launches staged by the spider-window replay:
        #: (payment, compiled path, delivered amount, first-hop actual).
        self._staged_launches: List[
            Tuple[Payment, "CompiledPath", float, float]
        ] = []
        #: Residual overlay, one Python column per field, keyed by
        #: direction id: the live store values with every staged operation
        #: applied in decision order.  ``_bal`` holds every direction read
        #: so far (seeded in one gather, see :meth:`_open_overlay`);
        #: ``_infl``/``_sent`` are opened together, only for directions a
        #: lock writes — their shared key order is the write-back set.
        self._bal: Dict[int, float] = {}
        self._infl: Dict[int, float] = {}
        self._sent: Dict[int, float] = {}
        #: Whether the overlay is open (seeded, for waterfilling) since
        #: the last flush.
        self._seeded = False
        #: Probe caches of the running cohort's path sets — the
        #: directions :meth:`_open_overlay` seeds ``_bal`` with.  Empty
        #: for the window rule, which reads lazily.
        self._cohort_probes: Sequence["_ProbeCache"] = ()
        #: Per-channel ``num_refunded`` increments from replayed failed
        #: locks (applied at flush).
        self._refund_deltas: Dict[int, int] = {}
        #: Whether a replayed failed lock perturbed the overlay since the
        #: last flush — forces the exact write-back flush path.
        self._has_failed_locks = False
        #: Channel ids whose state the overlay has perturbed since the
        #: last flush.
        self._touched_cids: Set[int] = set()
        # Observability (surfaced via SimulationSession.dispatch_stats):
        # cohorts and their payments count every cohort driven; the rest
        # count replay work only.
        self.cohorts = 0
        self.cohort_payments = 0
        self.batched_units = 0
        self.scalar_fallbacks = 0
        #: :meth:`_replay_lock` calls, and how many of them bounced.
        self.replayed_locks = 0
        self.failed_locks = 0

    # ------------------------------------------------------------------
    # Cohort driver
    # ------------------------------------------------------------------
    def attempt_cohort(self, payments: Sequence[Payment]) -> None:
        """Run the scheme's attempt for every payment, replaying where it
        pays (see :meth:`_replay_rule`).

        Payments are processed in cohort order; the observable effects are
        byte-identical to calling ``scheme.attempt`` per payment in that
        same order (the sequential loop).
        """
        if not payments:
            return
        self.cohorts += 1
        self.cohort_payments += len(payments)
        session = self.session
        rule = self._replay_rule()
        if rule is None:
            # No replay: the macro-tick driver still owns triage/reschedule
            # batching, but decisions run through the scheme's own
            # attempt, sequentially.
            scheme = session.scheme
            for payment in payments:
                scheme.attempt(payment, session)
            return
        store = self.store
        profiles = [
            self._profile(payment.source, payment.dest) for payment in payments
        ]
        # What a replay reads decides what is probed and what the overlay
        # is seeded with: every hop for waterfilling, nothing for the
        # window rule, which reads first hops lazily through the overlay
        # (and every flush drops the overlay), so its probe values are
        # never read.
        probed = rule == "waterfilling"
        if probed:
            probes = [prof.probe for prof in profiles if prof.probe is not None]
            self.table.refresh_probes(probes)
            self._cohort_probes = probes
        else:
            self._cohort_probes = ()
        for payment, prof in zip(payments, profiles):
            probe = prof.probe
            if probe is None:
                self._fallback(payment)
                continue
            if probed:
                if probe.as_of != store.version:
                    # Version-stamp backstop: the store moved since the
                    # cohort probe.  Our own flushes drop the overlay
                    # themselves, so this is a fallback's attempt or an
                    # out-of-band mutation — either way every seeded
                    # balance is suspect: land what is staged, drop the
                    # overlay, re-probe live state.
                    self._flush()
                    self.table.refresh_probes((probe,))
                if not self._replay_waterfilling(payment, prof):
                    self._fallback(payment)
            else:
                self._replay_window(payment, prof)
        self._flush()

    def _replay_rule(self) -> Optional[str]:
        """The replay this session's cohorts run, or ``None`` for the
        scheme's own ``attempt`` — worked out once, at :meth:`prime` or
        the first cohort.

        Only the two replays a benchmark workload shows paying are run:
        waterfilling where some channel's fee schedule charges a fee, and
        the window launch loop where a hop transport is attached (without
        one the scheme's ``attempt`` raises its own ``TypeError``).
        """
        if not self._rule_decided:
            self._rule_decided = True
            session = self.session
            rule = getattr(session.scheme, "cohort_rule", None)
            if rule == "waterfilling":
                fees = session.network.direction_index()
                if not fees.fee_bearing.any():
                    rule = None
            elif rule == "spider-window":
                transport = getattr(session, "transport", None)
                if not hasattr(transport, "send_unit_hop_by_hop"):
                    rule = None
            self._rule = rule if rule in _BATCH_RULES else None
        return self._rule

    def _fallback(self, payment: Payment) -> None:
        """Sequential fallback: land staged sends first so this attempt
        observes exactly the state the sequential loop would have seen at
        its turn, then run the scheme's own ``attempt`` against live
        state.  The flush leaves the overlay unseeded, so the next replay
        re-gathers whatever that attempt moved."""
        self._flush()
        self.scalar_fallbacks += 1
        self.session.scheme.attempt(payment, self.session)

    # ------------------------------------------------------------------
    # Residual overlay
    # ------------------------------------------------------------------
    def _open_overlay(self) -> None:
        """Open the overlay the first time a replay needs it.

        One gather reads the balance of every direction the cohort's path
        sets cover, so the replay's reads are plain ``_bal[d]`` lookups
        (the window rule has no cohort probes and fills ``_bal`` lazily).
        From here to the flush every staged lock is booked as it is
        replayed.
        """
        if self._seeded:
            return
        self._seeded = True
        probes = self._cohort_probes
        if probes:
            dirs = (
                probes[0].dirs
                if len(probes) == 1
                else np.concatenate([probe.dirs for probe in probes])
            )
            self._bal.update(
                zip(dirs.tolist(), self.store.balance_flat[dirs].tolist())
            )

    def _book(self, hops: Sequence[int], amounts: Sequence[float]) -> None:
        """Apply one lock's per-hop arithmetic to the overlay (``amounts``
        are pre-clamped actuals; every hop is already in ``_bal``)."""
        bal = self._bal
        infl = self._infl
        sent = self._sent
        for d, amount in zip(hops, amounts):
            if d not in sent:
                self._open_writes(d)
            bal[d] = bal[d] - amount
            infl[d] = infl[d] + amount
            sent[d] = sent[d] + amount
        self._touched_cids.update([d >> 1 for d in hops])

    def _open_writes(self, d: int) -> None:
        """Open the written columns of one direction from live state."""
        store = self.store
        self._infl[d] = store.inflight_flat.item(d)
        self._sent[d] = store.sent_flat.item(d)

    def _availability(self, d: int) -> float:
        """Residual spendable funds (0 where frozen) — what
        ``store.availability`` would report after a flush."""
        return 0.0 if self.store.frozen[d >> 1] else self._bal[d]

    def _bottleneck(self, cpath: "CompiledPath") -> float:
        """Residual bottleneck of one path — ``network.bottleneck`` as the
        sequential loop would observe it after a flush (min is
        comparison-only, so it matches the vectorised ``.min()`` bit for
        bit)."""
        if self.store.frozen_count:
            return min(map(self._availability, cpath.dir_list))
        return min(map(self._bal.__getitem__, cpath.dir_list))

    def _estimates(self, prof: _PairProfile) -> List[float]:
        """The profile's probe values with the residual overlay applied.

        Paths free of staged traffic keep their (fresh) probe values —
        live by construction; paths whose channels carry staged
        operations are re-derived from the overlay, which equals the
        post-flush state bit for bit.
        """
        probe = prof.probe
        assert probe is not None
        est = probe.values_list.copy()
        touched = self._touched_cids
        if touched and not touched.isdisjoint(prof.cids):
            path_cid_sets = prof.path_cid_sets
            if path_cid_sets is None:
                path_cid_sets = prof.path_cid_sets = [
                    frozenset(d >> 1 for d in cpath.dir_list)
                    for cpath in prof.cpaths
                ]
            for i, path_cids in enumerate(path_cid_sets):
                if not touched.isdisjoint(path_cids):
                    est[i] = self._bottleneck(prof.cpaths[i])
        return est

    # ------------------------------------------------------------------
    # Staged lock replay
    # ------------------------------------------------------------------
    def _replay_lock(
        self, cpath: "CompiledPath", required: List[float]
    ) -> Optional[List[float]]:
        """Replicate ``lock_path_funds`` against the overlay.

        On success: applies the per-hop lock arithmetic to the overlay and
        returns the actuals (the store's ``min(required, balance)`` clamp
        bit for bit).  On the first frozen/under-funded hop ``k``: applies the
        eager failure's lock-then-rollback side effects to hops
        ``0..k-1`` — the ``(b - a) + a`` balance and ``(i + a) - a``
        inflight round-trips, the ``sent`` growth and the refund tick —
        and returns ``None``, leaving the overlay in exactly the state the
        eager ``InsufficientFundsError`` leaves the store.

        Callers must have validated ``required`` positive and finite
        (:meth:`_valid_lock_amounts`) and opened the overlay; every hop
        must be in ``_bal`` (the seed covers the cohort's path sets).
        """
        store = self.store
        bal = self._bal
        hops = cpath.dir_list
        self.replayed_locks += 1
        balances = list(map(bal.__getitem__, hops))
        funds = balances
        if store.frozen_count:
            # A frozen hop fails the lock whatever it holds.
            frozen = store.frozen
            funds = [
                -math.inf if frozen[d >> 1] else balance
                for d, balance in zip(hops, balances)
            ]
        failing = 0
        for req, available in zip(required, funds):
            if not (req <= available + 1e-9):
                break
            failing += 1
        else:
            actuals = [
                req if req <= balance else balance
                for req, balance in zip(required, balances)
            ]
            self._book(hops, actuals)
            return actuals
        self.failed_locks += 1
        if failing > 0:
            infl = self._infl
            sent = self._sent
            refunds = self._refund_deltas
            touched = self._touched_cids
            for d, req, balance in zip(hops[:failing], required, balances):
                if d not in sent:
                    self._open_writes(d)
                actual = req if req <= balance else balance
                bal[d] = (balance - actual) + actual
                infl[d] = (infl[d] + actual) - actual
                sent[d] = sent[d] + actual
                cid = d >> 1
                refunds[cid] = refunds.get(cid, 0) + 1
                touched.add(cid)
            self._has_failed_locks = True
        return None

    @staticmethod
    def _valid_lock_amounts(required: List[float]) -> bool:
        """Whether ``lock_path`` would accept these amounts (positive and
        finite); a miss means ``lock_path`` raises ``ChannelError``, so
        the caller falls back and lets it."""
        for req in required:
            if not (req > 0.0) or not math.isfinite(req):
                return False
        return True

    def _stage_send(
        self,
        payment: Payment,
        cpath: "CompiledPath",
        amount: float,
        fee: float,
        actuals: List[float],
    ) -> None:
        """Stage one successful send; :meth:`_replay_lock` has already
        booked its per-hop ``actuals`` on the overlay."""
        payment.register_inflight(amount)
        self._staged_payments.append(payment)
        self._staged_cpaths.append(cpath)
        self._staged_amounts.append(amount)
        self._staged_fees.append(fee)
        self._staged_hop_amounts.append(actuals)

    # ------------------------------------------------------------------
    # Waterfilling replay
    # ------------------------------------------------------------------
    def _replay_waterfilling(
        self, payment: Payment, prof: _PairProfile
    ) -> bool:
        """Replay :meth:`WaterfillingScheme.attempt
        <repro.core.waterfilling.WaterfillingScheme.attempt>` arithmetic
        exactly — same argmax tie-break, same ``min`` clamp, same estimate
        decrement, same fresh-bottleneck re-probe after every veto *or
        failed lock* — against the overlaid cohort estimates.  Returns
        ``False`` only when ``lock_path`` would raise (non-finite lock
        amounts)."""
        config = self.session.config
        min_unit = config.min_unit_value
        mtu = config.mtu
        self._open_overlay()
        est = self._estimates(prof)
        cpaths = prof.cpaths
        remaining = payment.remaining  # moves only when a send is staged
        while remaining >= min_unit:
            headroom = max(est)
            if headroom < min_unit:
                break
            best = est.index(headroom)  # first maximum, as np.argmax
            amount = min(headroom, remaining, mtu)
            cpath = cpaths[best]
            if amount >= min_unit:
                required = cpath.hop_amounts(amount)
                fee = required[0] - amount
                if not fee > 0 or payment.fee_budget_allows(fee):
                    if not self._valid_lock_amounts(required):
                        return False  # lock_path raises ChannelError
                    actuals = self._replay_lock(cpath, required)
                    if actuals is not None:
                        self._stage_send(payment, cpath, amount, fee, actuals)
                        est[best] -= amount
                        remaining = payment.remaining
                        continue
            # send_unit's dust veto, its fee-budget veto (neither writes
            # the store) or a failed lock (side effects replayed): the
            # scheme re-probes fresh state — the residual bottleneck — and
            # retires or downgrades the path.
            fresh = self._bottleneck(cpath)
            if fresh >= amount - 1e-12 or fresh < min_unit:
                est[best] = 0.0
            else:
                est[best] = fresh
        return True

    # ------------------------------------------------------------------
    # Spider-window replay
    # ------------------------------------------------------------------
    def _replay_window(self, payment: Payment, prof: _PairProfile) -> None:
        """Replay :meth:`WindowedSpiderScheme.attempt
        <repro.core.window_control.WindowedSpiderScheme.attempt>`.

        The launch constraint is the sender's first hop, locked via
        ``try_lock`` — which *fails clean* (no store effects), so this
        replay never stages failures: every decision either stages a
        launch or replicates a side-effect-free break.  Window state
        (AIMD inflight) mutates eagerly, exactly as the sequential loop
        does.  The pair's window states are held on its profile; each
        attempt reads every path's headroom once for the stable
        descending sort (the scheme's ``sorted(..., reverse=True)`` tie
        order), then carries the payment's ``remaining`` and the filled
        path's headroom as locals, recomputed with the scheme's own
        expressions after each launch.  Only ``_bal`` is booked: a launch
        is never rolled back, so the flush's ``lock_many`` needs no write
        set.
        """
        session = self.session
        config = session.config
        min_unit = config.min_unit_value
        mtu = config.mtu
        self._open_overlay()
        store = self.store
        bal = self._bal
        cpaths = prof.cpaths
        windows = prof.windows
        if windows is None:
            window = cast(Any, session.scheme).window
            windows = prof.windows = [window(cpath.nodes) for cpath in cpaths]
        heads = [max(0.0, state.window - state.inflight) for state in windows]
        launches = self._staged_launches
        remaining = payment.remaining
        for i in sorted(range(len(heads)), key=heads.__getitem__, reverse=True):
            if remaining < min_unit:
                break
            state = windows[i]
            cpath = cpaths[i]
            d = cpath.dir_list[0]
            # Live, not heads[i]: a path set listing one path twice shares
            # its state, which an earlier entry may have filled.
            headroom = max(0.0, state.window - state.inflight)
            while remaining >= min_unit and headroom >= min_unit:
                balance = bal.get(d)
                if balance is None:
                    balance = bal[d] = store.balance_flat.item(d)
                frozen = store.frozen_count and store.frozen[d >> 1]
                first_hop = 0.0 if frozen else balance
                amount = min(remaining, headroom, mtu, first_hop)
                if amount < min_unit:
                    break
                # try_lock replica (clean failure; unreachable after the
                # first-hop availability clamp, kept for exactness).
                if frozen or amount > balance + 1e-9:
                    break
                actual = amount if amount <= balance else balance
                bal[d] = balance - actual
                launches.append((payment, cpath, amount, actual))
                payment.register_inflight(amount)
                remaining = payment.remaining
                state.inflight += amount
                headroom = max(0.0, state.window - state.inflight)

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Execute every staged operation through one store write.

        Without replayed lock failures the staged sends are pure per-hop
        subtractions/additions, applied in decision order by one
        ``lock_many`` call — bit-identical to the eager per-send locks.
        With failures staged the op sequence includes bit-changing
        round-trips a sum of deltas cannot express;
        the overlay tracked every operation with the store's own float64
        arithmetic, so the final values are written back verbatim (equal
        by construction) and the ``sent``/``num_refunded`` deltas land
        with them.  Unit materialisation, payment bookkeeping and
        resolution scheduling always run in decision order.
        """
        staged = self._staged_payments
        session = self.session
        store = self.store
        if staged:
            cpaths = self._staged_cpaths
            amounts = self._staged_amounts
            hop_lists = self._staged_hop_amounts
            if self._has_failed_locks:
                self._write_back_overlay()
            elif len(staged) == 1:
                store.lock_many(cpaths[0].dir_list, hop_lists[0])
            else:
                store.lock_many(
                    [d for cpath in cpaths for d in cpath.dir_list],
                    [a for hop_list in hop_lists for a in hop_list],
                )
            now = session.sim.now
            for payment, cpath, amount, fee, hop_list in zip(
                staged, cpaths, amounts, self._staged_fees, hop_lists
            ):
                unit = TransactionUnit.create(
                    payment=payment,
                    amount=amount,
                    path=cpath.nodes,
                    htlcs=PathLock(cpath, hop_list),
                    sent_at=now,
                    fee=fee,
                )
                session._schedule_resolve(unit)
            self.batched_units += len(staged)
            staged.clear()
            cpaths.clear()
            amounts.clear()
            self._staged_fees.clear()
            hop_lists.clear()
        elif self._has_failed_locks:
            # A replay can end in failures only (every lock attempt
            # bounced): their side effects still have to land.
            self._write_back_overlay()
        launches = self._staged_launches
        if launches:
            count = len(launches)
            store.lock_many(
                [cpath.dir_list[0] for _, cpath, _, _ in launches],
                [actual for _, _, _, actual in launches],
            )
            transport = cast(Any, session.transport)
            now = session.sim.now
            units: List[HopUnit] = []
            for payment, cpath, amount, actual in launches:
                # send_unit_hop_by_hop replica, launch half: the HopUnit
                # launches with its first-hop lock booked.
                unit = HopUnit(payment, amount, cpath.nodes, now)
                unit.cpath = cpath
                unit.locked.append(actual)
                unit.hop_index += 1
                units.append(unit)
            transport.advance_many(units)
            self.batched_units += count
            launches.clear()
        self._bal.clear()
        self._infl.clear()
        self._sent.clear()
        self._seeded = False
        self._refund_deltas.clear()
        self._has_failed_locks = False
        self._touched_cids.clear()

    def _write_back_overlay(self) -> None:
        """Land the overlay verbatim (the failed-lock flush path): the
        written directions' three columns, one fancy-index assignment
        each (the write set holds each direction once)."""
        sent = self._sent
        # Refunded channel rows are rows of written directions.
        self.store.write_overlay(
            np.array(list(sent), dtype=np.intp),
            list(map(self._bal.__getitem__, sent)),
            list(self._infl.values()),
            list(sent.values()),
            self._refund_deltas,
        )

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    def prime(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Warm what this session's cohorts read for ``pairs`` — called
        from ``SimulationSession.prepare`` right after the path prefetch,
        so the first cohorts skip per-pair path compilation entirely.

        A replay gets its dispatch profiles.  A scheme that decides
        through its own ``attempt`` gets the caches its sequential path
        reads: one batch compile of the pairs' path sets and one probe
        handle per set.  Both are static facts about static path sets;
        building them early changes nothing observable."""
        if self._replay_rule() is not None:
            profiles = self._profiles
            self._build_profiles(
                list(dict.fromkeys(pair for pair in pairs if pair not in profiles))
            )
        elif getattr(self.session.scheme, "path_cache", None) is not None:
            self._warm(list(dict.fromkeys(pairs)))

    def _warm(
        self, pairs: List[Tuple[int, int]]
    ) -> List[Optional["_ProbeCache"]]:
        """One batch compile of every path of ``pairs``' path sets, then
        each set's probe handle (``None`` for an empty or degenerate
        set)."""
        paths_of = self.session.scheme.path_cache.paths
        path_sets = [paths_of(source, dest) for source, dest in pairs]
        table = self.table
        table.compile_many(path_sets)
        return [table.probe_handle(paths) if paths else None for paths in path_sets]

    def _profile(self, source: int, dest: int) -> _PairProfile:
        key = (source, dest)
        prof = self._profiles.get(key)
        if prof is None:
            self._build_profiles([key])
            prof = self._profiles[key]
        return prof

    def _build_profiles(self, pairs: List[Tuple[int, int]]) -> None:
        """Profile ``pairs`` in bulk: one batch compile of all their
        paths, one probe view per pair, then every hop's channel row from
        one flat array of their hops."""
        profiles = self._profiles
        probed: List[_PairProfile] = []
        dirs: List[np.ndarray] = []
        for pair, probe in zip(pairs, self._warm(pairs)):
            prof = profiles[pair] = _PairProfile()
            if probe is not None:
                prof.probe = probe
                prof.cpaths = probe.cpaths
                probed.append(prof)
                dirs.append(probe.dirs)
        if not probed:
            return
        pool = self.session.network.direction_index().int_pool
        cid_list = tuple(map(pool.__getitem__, (np.concatenate(dirs) >> 1).tolist()))
        ends = np.cumsum([hops.shape[0] for hops in dirs]).tolist()
        for prof, start, end in zip(probed, [0] + ends, ends):
            prof.cids = cid_list[start:end]

    # ------------------------------------------------------------------
    # End-of-run invariant
    # ------------------------------------------------------------------
    def assert_drained(self) -> None:
        """Fail loudly if any staged send or overlay state survived its
        cohort.

        ``attempt_cohort`` flushes before returning and cohorts never span
        events, so staged sends found at finish mean in-flight value the
        metrics would silently drop — and a surviving overlay means the
        next cohort would have decided on stale balances without failing
        anything.  The funds are landed first (so the store stays
        conserved for post-mortem inspection), then the run is failed.
        """
        counts = {
            "staged_payments": len(self._staged_payments),
            "staged_cpaths": len(self._staged_cpaths),
            "staged_amounts": len(self._staged_amounts),
            "staged_launches": len(self._staged_launches),
            "overlay_bal": len(self._bal),
            "overlay_infl": len(self._infl),
            "overlay_sent": len(self._sent),
            "refund_deltas": len(self._refund_deltas),
            "overlay_seeded": int(self._seeded),
        }
        if any(counts.values()):
            buffers = ", ".join(
                f"{name}={n}" for name, n in counts.items() if n
            )
            payment_ids = sorted(
                {payment.payment_id for payment in self._staged_payments}
                | {record[0].payment_id for record in self._staged_launches}
            )
            shown = ", ".join(str(pid) for pid in payment_ids[:8])
            if len(payment_ids) > 8:
                shown += f", ... ({len(payment_ids) - 8} more)"
            self._flush()
            raise SimulationError(
                f"dispatch staging buffers not drained at finish(): {buffers}"
                + (
                    f"; stranded sends belong to payment ids [{shown}]"
                    if shown
                    else ""
                )
                + " — a cohort ended without flushing"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DispatchPlan(cohorts={self.cohorts}, "
            f"payments={self.cohort_payments}, "
            f"batched_units={self.batched_units}, "
            f"fallbacks={self.scalar_fallbacks})"
        )
