"""In-network router queues: hop-by-hop forwarding of transaction units.

§4.2: *"A Spider router queues transaction units when it lacks the funds to
send them immediately (Fig. 3).  As it receives funds from the other side
of the payment channel, it uses them to send new transaction units from its
queue."*  The paper's evaluation defers this ("We leave implementing
in-network queues ... to future work"); this module implements it.

Model
-----
A unit launched on a path locks funds one hop at a time.  At hop u→v:

* if u's spendable balance covers the unit, the hop locks and the unit
  advances after ``hop_delay`` seconds;
* otherwise the unit parks in router u's per-direction queue.  Whenever the
  u→v direction gains funds (a settlement credits u from v, or a refund
  returns funds to u), the queue is serviced in order;
* a unit that waits longer than ``queue_timeout`` is cancelled: its
  already-locked upstream hops refund (the HTLCs time out).

When the unit reaches the destination, the receiver's confirmation
propagates back and every hop settles after the configured confirmation
delay — the same end-to-end pending period as the source-routed model, so
results are comparable.

The transport machinery and the
:class:`~repro.engine.transport.HopUnit` record it moves live in
:mod:`repro.engine.transport`; this module keeps
:class:`SpiderQueueingScheme`, which builds a
:class:`~repro.engine.transport.HopByHopTransport` and pairs it with
waterfilling path selection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.payments import Payment
from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import SimulationSession
    from repro.engine.transport import HopByHopTransport

__all__ = ["SpiderQueueingScheme"]


class SpiderQueueingScheme(RoutingScheme):
    """Waterfilling path choice over the hop-by-hop queueing transport
    (a default :class:`~repro.engine.transport.HopByHopTransport`)."""

    name = "spider-queueing"
    atomic = False
    num_paths = 4

    def __init__(self, num_paths: int = num_paths):
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        self.num_paths = num_paths

    def make_transport(self, session: "SimulationSession") -> "HopByHopTransport":
        from repro.engine.transport import HopByHopTransport

        return HopByHopTransport(session)

    def attempt(self, payment: Payment, runtime: "SimulationSession") -> None:
        handle = runtime.path_handle(payment.source, payment.dest, self.num_paths)
        if handle is None:
            runtime.fail_payment(payment)
            return
        cpaths = handle.cpaths
        availability = runtime.network.path_table.bottleneck_many(handle)
        store = runtime.network.state_store
        min_unit = runtime.config.min_unit_value
        send = runtime.transport.send_unit_hop_by_hop
        while payment.remaining >= min_unit:
            best = max(range(len(cpaths)), key=lambda i: availability[i])
            # First-hop availability is the launch constraint; bottleneck
            # only guides path preference (downstream scarcity queues).
            d = cpaths[best].dir_list[0]
            first_hop = (
                0.0
                if store.frozen_count and store.frozen[d >> 1]
                else store.balance_flat.item(d)
            )
            amount = min(
                max(availability[best], 0.0) if availability[best] > min_unit else first_hop,
                first_hop,
                payment.remaining,
                runtime.config.mtu,
            )
            if amount < min_unit:
                break
            if not send(payment, cpaths[best], amount):
                availability[best] = 0.0
                if all(a < min_unit for a in availability):
                    break
                continue
            availability[best] = max(0.0, availability[best] - amount)
