"""Celer-style backpressure routing: per-destination queue gradients.

Celer's cRoute (the other contemporaneous "route payments like packets"
proposal, and a comparison point of the NSDI version of the paper) is a
*backpressure* algorithm: transaction units are not source-routed at all.
Every router keeps one queue per destination; periodically, each channel
direction forwards units of the destination with the largest *queue
gradient* — the backlog difference between the two endpoints — so units
drift down the congestion gradient until they reach their destination.
Backpressure is throughput-optimal in the fluid limit but pays for it with
queueing delay, which is exactly the trade-off the comparison probes.

Model
-----
* Arriving payments are chopped into MTU-bounded units and injected into
  the source router's queue for the payment's destination.
* A service epoch runs every ``service_interval`` seconds.  For each
  channel direction ``u→v`` it repeatedly picks the destination ``d``
  maximising ``backlog_u(d) − backlog_v(d) + beta·(dist(u,d) − dist(v,d))``
  and forwards the oldest eligible unit of ``d`` while the weight stays
  positive: a unit pressing forward needs the direction's spendable funds,
  a stuck unit popping back (below) needs none.  ``beta`` is the standard
  shortest-path bias that keeps pure backpressure from random-walking at
  low load.
* Each forwarded hop locks the unit's value in the channel store; a unit
  that reaches its destination settles every hop after the configured
  confirmation delay (the end-to-end confirmation of §4.2), a unit that
  exceeds its step budget or outlives its payment refunds every hop.  So
  does a unit popped back to its source once every neighbour of the
  source is visited (it could never move again); its payment re-injects
  the value.
* Units never *re-lock* a node: pressing forward is restricted to
  unvisited nodes, and a unit that has sat in one queue for
  ``stuck_after`` seconds **backtracks** — it pops its last hop and that
  hop's lock is refunded.  This mirrors how true backpressure drains
  misrouted backlog (reverse pressure builds up over time), while keeping
  every *settled* trail a simple path as the paper requires.

:class:`CelerScheme` builds a
:class:`~repro.engine.transport.BackpressureTransport` and injects payment
value into it; the queues, gradients, forwarding, settlement and refunds,
and the :class:`~repro.engine.transport.BackpressureUnit` records they
move, live in :mod:`repro.engine.transport`.  The service
epoch's gradient weights compute through the
network :class:`~repro.engine.signals.ControlPlane` — one vectorised
expression per candidate batch rather than per-destination Python calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.payments import Payment
from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import SimulationSession
    from repro.engine.transport import BackpressureTransport

__all__ = ["CelerScheme"]


class CelerScheme(RoutingScheme):
    """Backpressure (Celer cRoute-style) packet-switched routing.

    Parameters
    ----------
    unit_cap:
        Optional per-unit value cap below the runtime MTU (finer queue
        granularity at the cost of more units).
    service_interval, beta, max_hops, stuck_after:
        Parameters of the
        :class:`~repro.engine.transport.BackpressureTransport` the scheme
        builds.
    """

    name = "celer"
    atomic = False

    def __init__(
        self,
        unit_cap: Optional[float] = None,
        service_interval: float = 0.1,
        beta: float = 1.0,
        max_hops: int = 10,
        stuck_after: float = 1.0,
    ):
        if unit_cap is not None and unit_cap <= 0:
            raise ValueError(f"unit_cap must be positive, got {unit_cap}")
        self.unit_cap = unit_cap
        self.service_interval = service_interval
        self.beta = beta
        self.max_hops = max_hops
        self.stuck_after = stuck_after

    def make_transport(self, session: "SimulationSession") -> "BackpressureTransport":
        from repro.engine.transport import BackpressureTransport

        return BackpressureTransport(
            session,
            service_interval=self.service_interval,
            beta=self.beta,
            max_hops=self.max_hops,
            stuck_after=self.stuck_after,
        )

    def attempt(self, payment: Payment, runtime: "SimulationSession") -> None:
        inject = runtime.transport.inject
        injected_any = False
        while payment.remaining >= runtime.config.min_unit_value:
            chunk = payment.remaining
            if self.unit_cap is not None:
                chunk = min(chunk, self.unit_cap)
            if not inject(payment, chunk):
                break
            injected_any = True
        if not injected_any and payment.units_sent == 0:
            # Destination unreachable from the source: terminal.
            runtime.fail_payment(payment)
