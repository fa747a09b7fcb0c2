"""Routing scheme interface.

A scheme is pure policy: it decides *which paths and how much*, and uses the
session's primitives (``send_unit`` / ``send_compiled`` / ``send_atomic``)
to move money.  The session (passed as ``runtime``) calls
:meth:`RoutingScheme.attempt` — the scheme's one decision path; the
session's :class:`~repro.engine.dispatch.DispatchPlan` runs it per payment
of every same-tick cohort:

* once at arrival for **atomic** schemes (``atomic = True``) — if the
  attempt locks nothing, the runtime fails the payment (the paper's
  baselines try exactly once);
* at arrival and at every poll for **non-atomic** schemes, while the
  payment has remaining value and has not expired.

Path discovery goes through the network's shared
:class:`~repro.engine.pathservice.PathService`: the default
:meth:`RoutingScheme.prepare` hands schemes a
:class:`~repro.engine.pathservice.PairPathView` as ``self.path_cache`` —
a ``paths`` / ``k`` surface served from one per-network service (CSR
array BFS, process-wide memoisation, optional disk artifacts) instead of a
private per-scheme cache.  A scheme with a path budget can skip the node
tuples altogether: :meth:`SimulationSession.path_handle
<repro.engine.session.SimulationSession.path_handle>` returns the pair's
compiled handle, built in bulk during ``prepare()``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["RoutingScheme"]


class RoutingScheme(abc.ABC):
    """Base class for all routing schemes."""

    #: Human-readable name used in reports.
    name: str = "base"
    #: Whether payments are delivered all-or-nothing with a single attempt.
    atomic: bool = False
    #: Native session transport the scheme needs: ``None`` (source-routed),
    #: ``"hop"`` (§4.2 in-network queues / windowed transport) or
    #: ``"backpressure"`` — see :mod:`repro.engine.transport`.  Transport
    #: schemes pass the transport's constructor arguments through an
    #: optional ``runtime_kwargs()`` method.
    transport: Optional[str] = None

    def prepare(self, runtime: "SimulationSession") -> None:
        """One-time setup before the trace starts (path/LP precomputation).

        The default implementation binds the network's shared
        :class:`~repro.engine.pathservice.PathService` view as
        ``self.path_cache`` if the subclass declared a ``num_paths``
        attribute — repeated runs and multi-scheme comparisons over the
        same topology share one set of pair computations.
        """
        num_paths = getattr(self, "num_paths", None)
        if num_paths is not None:
            self.path_cache = runtime.network.path_service.view(k=num_paths)

    @abc.abstractmethod
    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        """Try to make progress on ``payment`` given current balances."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
