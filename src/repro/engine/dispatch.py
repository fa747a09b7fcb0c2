"""Macro-tick dispatch: the cohort driver and the per-session pair handles.

The session's ``_poll`` (and same-tick arrival bursts) hand the whole
cohort of attempt-eligible payments to :class:`DispatchPlan` at once.  The
plan runs the scheme's own ``attempt`` per payment, in cohort order, each
committing its locks eagerly — the one decision path every scheme has.
The cohort itself is what the session batches: triage, attempt counters
and rescheduling run once per tick, not once per payment.

**Handles.**  A pair's *handle* is the probe cache of its path set
(:meth:`PathTable.handle <repro.engine.pathtable.PathTable.handle>`): the
set's compiled paths (``cpaths``) plus its memoised bottlenecks.  The plan
keeps one handle per pair and path budget ``k`` in a per-session map — on
the plan, not on the scheme, because a handle is bound to this network's
:class:`~repro.engine.pathtable.PathTable`.  :meth:`DispatchPlan.prime`
fills it for every pair of the trace during the untimed ``prepare()``:
the pairs' path sets come out of the discovery cache as columns
(:meth:`PersistentCache.columns
<repro.engine.pathservice.PersistentCache.columns>`), one
:meth:`PathTable.compile_columns
<repro.engine.pathtable.PathTable.compile_columns>` lays all their paths
out in the path arena, and each pair's handle is built from its run of
arena rows — no node tuple is made or keyed on the way.  A pair first
seen mid-run goes through the same builder as a batch of one.  A
scheme's ``attempt`` reads the map through
:meth:`SimulationSession.path_handle
<repro.engine.session.SimulationSession.path_handle>`, then probes, locks
and launches on the handle's ``cpaths``, so the run compiles no path and
keys no path set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.payments import Payment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pathtable import _ProbeCache
    from repro.engine.session import SimulationSession

__all__ = ["DispatchPlan"]


class DispatchPlan:
    """Cohort driver + pair handle map for one session."""

    def __init__(self, session: "SimulationSession"):
        self.session = session
        self.table = session.network.path_table
        #: ``k`` → ``(source, dest)`` → the compiled handle of the pair's
        #: ``k``-path set (``None``: disconnected).  Built by :meth:`_warm`
        #: and read by every scheme's ``attempt`` (:meth:`path_handle`); a
        #: handle is bound to this network's table, so the map lives here,
        #: not on the scheme.  Keyed by the pair tuples the caller already
        #: holds (one per pair of the trace), not by new ones.
        self._handles: Dict[
            int, Dict[Tuple[int, int], Optional["_ProbeCache"]]
        ] = {}
        # Observability (surfaced via SimulationSession.dispatch_stats).
        self.cohorts = 0
        self.cohort_payments = 0

    def attempt_cohort(self, payments: Sequence[Payment]) -> None:
        """Run the scheme's ``attempt`` for every payment, in cohort order."""
        if not payments:
            return
        self.cohorts += 1
        self.cohort_payments += len(payments)
        session = self.session
        attempt = session.scheme.attempt
        for payment in payments:
            attempt(payment, session)

    def prime(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Build the handles of ``pairs`` — called from
        ``SimulationSession.prepare`` right after the path prefetch, so the
        run compiles no path and keys no path set.

        One batch compile of the pairs' path sets and one probe handle per
        set (:meth:`_warm`), for a scheme with a path budget
        (``num_paths``).  Handles are static facts about static path sets;
        building them early changes nothing observable."""
        k = getattr(self.session.scheme, "num_paths", None)
        if k is not None:
            self._warm(list(dict.fromkeys(pairs)), k)

    def path_handle(
        self, source: int, dest: int, k: int
    ) -> Optional["_ProbeCache"]:
        """The pair's ``k``-path handle from the map, built on first use
        for a pair :meth:`prime` did not see."""
        try:
            return self._handles[k][source, dest]
        except KeyError:
            return self._warm([(source, dest)], k)[0]

    def _warm(
        self, pairs: List[Tuple[int, int]], k: int
    ) -> List[Optional["_ProbeCache"]]:
        """The handles of ``pairs``' ``k``-path sets (``None`` for an
        empty or degenerate set), in pair order.  The pairs not yet in the
        map get their sets' columns in one batch, one compile of every
        path of them, then one handle per set from its arena rows."""
        handles = self._handles.setdefault(k, {})
        missing = [pair for pair in pairs if pair not in handles]
        if missing:
            columns = self.session.network.path_service.view(k=k).columns(missing)
            table = self.table
            cpaths = table.compile_columns(columns)
            bounds = columns.set_ptr.tolist()
            for pair, start, stop in zip(missing, bounds, bounds[1:]):
                handles[pair] = table.handle(cpaths[start:stop])
        return [handles[pair] for pair in pairs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DispatchPlan(cohorts={self.cohorts}, "
            f"payments={self.cohort_payments})"
        )
