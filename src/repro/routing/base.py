"""Routing scheme interface.

A scheme is pure policy: it decides *which paths and how much*, and moves
money only through the session's one send core, on compiled paths —
``send_compiled`` (one unit), ``send_on_path`` (drain one path) or
``send_atomic`` (all-or-nothing shares) — or through the transport it
builds in :meth:`RoutingScheme.make_transport` (``runtime.transport``'s
``send_unit_hop_by_hop``/``launch``/``advance_many`` or ``inject``).
The session (passed as ``runtime``) calls
:meth:`RoutingScheme.attempt` — the scheme's one decision path; the
session's :class:`~repro.engine.dispatch.DispatchPlan` runs it per payment
of every same-tick cohort:

* once at arrival for **atomic** schemes (``atomic = True``) — if the
  attempt locks nothing, the runtime fails the payment (the paper's
  baselines try exactly once);
* at arrival and at every poll for **non-atomic** schemes, while the
  payment has remaining value and has not expired.

Path discovery goes through the network's shared
:class:`~repro.engine.pathservice.PathService`.  A scheme with a path
budget reads its pair's compiled handle (its ``cpaths``) through
:meth:`SimulationSession.path_handle
<repro.engine.session.SimulationSession.path_handle>`, built in bulk
during ``prepare()``; one that needs node tuples asks
``runtime.network.path_service.view(k)`` — the memoising per-``k`` cache
every scheme and run over the same topology shares — and a scheme that
finds its own node paths compiles each through the memoising
``network.path_table.compile``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession
    from repro.engine.transport import Transport

__all__ = ["RoutingScheme"]


class RoutingScheme(abc.ABC):
    """Base class for all routing schemes."""

    #: Human-readable name used in reports.
    name: str = "base"
    #: Whether payments are delivered all-or-nothing with a single attempt.
    atomic: bool = False

    def make_transport(self, session: "SimulationSession") -> Optional["Transport"]:
        """The transport the scheme routes on, built for ``session``.

        The session calls this in ``prepare()``, before
        :meth:`prepare` and before the trace is scheduled, and keeps the
        result as ``session.transport``.  The default, ``None``, is a
        source-routed scheme; the §4.2 hop-by-hop and backpressure schemes
        return a :mod:`repro.engine.transport` transport with their own
        parameters.  They import the transport class inside this method:
        the transport module imports ``repro.core.payments``, and the
        ``repro.core`` package imports every scheme module in it.
        """
        return None

    def prepare(self, runtime: "SimulationSession") -> None:
        """One-time setup before the trace starts (path/LP precomputation).

        The default does nothing: the session primes every ``num_paths``
        scheme's pair handles itself.
        """

    @abc.abstractmethod
    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        """Try to make progress on ``payment`` given current balances."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
