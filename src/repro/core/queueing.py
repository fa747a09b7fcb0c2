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

The transport machinery itself lives in
:class:`repro.engine.transport.HopByHopTransport`; this module keeps the
:class:`HopUnit` record it moves (a
:class:`~repro.core.payments.TransactionUnit` plus its forwarding state)
and :class:`SpiderQueueingScheme`, which pairs the transport with
waterfilling path selection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.payments import Payment, TransactionUnit
from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pathtable import CompiledPath
    from repro.engine.session import SimulationSession

__all__ = ["HopUnit", "SpiderQueueingScheme"]


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

    def __init__(self, payment: Payment, amount: float, cpath: "CompiledPath"):
        super().__init__(payment, amount, cpath, [])
        self.hop_index = 0  # next channel to lock: (path[i], path[i+1])
        self.queued_at: Optional[float] = None
        self.queue_seq = 0  # enqueue generation (lazy timeout cancellation)
        self.marked = False  # congestion mark (router queue delay, §4.1)

    @property
    def at_destination(self) -> bool:
        """Whether every hop has been locked."""
        return self.hop_index >= len(self.cpath.dir_list)


class SpiderQueueingScheme(RoutingScheme):
    """Waterfilling path choice over hop-by-hop queueing transport.

    The ``transport = "hop"`` declaration attaches a
    :class:`~repro.engine.transport.HopByHopTransport` to the session.
    """

    name = "spider-queueing"
    atomic = False
    transport = "hop"

    def __init__(self, num_paths: int = 4):
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        self.num_paths = num_paths

    def attempt(self, payment: Payment, runtime: "SimulationSession") -> None:
        if not hasattr(getattr(runtime, "transport", None), "send_unit_hop_by_hop"):
            raise TypeError(
                f"{type(self).__name__} requires a session with "
                "transport='hop'; see repro.engine.transport"
            )
        handle = runtime.path_handle(payment.source, payment.dest, self.num_paths)
        if handle is None:
            runtime.fail_payment(payment)
            return
        cpaths = handle.cpaths
        availability = runtime.network.path_table.bottleneck_many(handle)
        store = runtime.network.state_store
        min_unit = runtime.config.min_unit_value
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
            if not runtime.send_unit_hop_by_hop(payment, cpaths[best], amount):
                availability[best] = 0.0
                if all(a < min_unit for a in availability):
                    break
                continue
            availability[best] = max(0.0, availability[best] - amount)
