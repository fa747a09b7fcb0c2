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
propagates back and every hop settles after ``settle_delay`` — the same
end-to-end pending period as the source-routed model, so results are
comparable.

The transport machinery itself lives in
:class:`repro.engine.transport.HopByHopTransport`; this module keeps the
:class:`HopUnit` record it moves and :class:`SpiderQueueingScheme`, which
pairs the transport with waterfilling path selection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.payments import Payment
from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import SimulationSession

__all__ = ["HopUnit", "SpiderQueueingScheme"]

Path = Tuple[int, ...]


class HopUnit:
    """A transaction unit travelling hop-by-hop.

    Tracks the amount locked per completed hop (``locked``) and the index
    of the next hop to traverse; ``cpath`` is the unit's
    :class:`~repro.engine.pathtable.CompiledPath`, set by the transport at
    launch, so every hop lock/settle/refund is a direct store-index
    operation.
    """

    __slots__ = (
        "payment",
        "amount",
        "path",
        "cpath",
        "hop_index",
        "locked",
        "launched_at",
        "queued_at",
        "queue_seq",
        "marked",
        "done",
    )

    def __init__(self, payment: Payment, amount: float, path: Path, now: float):
        self.payment = payment
        self.amount = amount
        self.path = path
        self.cpath = None  # CompiledPath, set by the transport at launch
        self.hop_index = 0  # next channel to lock: (path[i], path[i+1])
        self.locked: List[float] = []  # actual per-hop locked amounts
        self.launched_at = now
        self.queued_at: Optional[float] = None
        self.queue_seq = 0  # enqueue generation (lazy timeout cancellation)
        self.marked = False  # congestion mark (router queue delay, §4.1)
        self.done = False

    @property
    def at_destination(self) -> bool:
        """Whether every hop has been locked."""
        return self.hop_index >= len(self.path) - 1

    @property
    def current_node(self) -> int:
        """The node currently holding the unit."""
        return self.path[self.hop_index]

    @property
    def next_node(self) -> int:
        """The next hop's downstream node."""
        return self.path[self.hop_index + 1]


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
        paths = self.path_cache.paths(payment.source, payment.dest)
        if not paths:
            runtime.fail_payment(payment)
            return
        availability = runtime.network.bottleneck_many(paths)
        min_unit = runtime.config.min_unit_value
        while payment.remaining >= min_unit:
            best = max(range(len(paths)), key=lambda i: availability[i])
            # First-hop availability is the launch constraint; bottleneck
            # only guides path preference (downstream scarcity queues).
            first_hop = runtime.network.available(paths[best][0], paths[best][1])
            amount = min(
                max(availability[best], 0.0) if availability[best] > min_unit else first_hop,
                first_hop,
                payment.remaining,
                runtime.config.mtu,
            )
            if amount < min_unit:
                break
            if not runtime.send_unit_hop_by_hop(payment, paths[best], amount):
                availability[best] = 0.0
                if all(a < min_unit for a in availability):
                    break
                continue
            availability[best] = max(0.0, availability[best] - amount)

