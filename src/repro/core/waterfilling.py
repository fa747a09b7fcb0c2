"""Spider (Waterfilling): imbalance-aware multipath routing.

§5.3.1: *"One such approach is for sources to independently try to minimize
imbalance on their paths by always sending on paths with the largest
available capacity, much like 'waterfilling' algorithms for max-min
fairness."*  The practical instantiation (§6.1) restricts each pair to 4
edge-disjoint shortest paths.

Unit-granular waterfilling: the source probes the bottleneck availability
of each of its paths, then repeatedly sends the next MTU-bounded unit on
the path with the highest *remaining* estimated availability, decrementing
the local estimate as it commits units.  Leftover value waits in the global
queue for the next poll, making the scheme non-atomic.

The session's :class:`~repro.engine.dispatch.DispatchPlan` runs
:meth:`attempt` per payment of every same-tick cohort, on fee-free and
fee-bearing networks alike (``ripple-full-fees-warm``: 5.41 → 4.92 s
median wall, 0.91×, and 203.8 → 170.1 MB peak RSS against the deleted
cohort replay, eleven pairs on a 2-vCPU host); a lock that bounces off a
fee-loaded hop is counted in ``dispatch_stats()["failed_locks"]``.
:meth:`attempt` works off the pair's compiled handle
(:meth:`SimulationSession.path_handle
<repro.engine.session.SimulationSession.path_handle>`, built during
``prepare()``): it probes the handle, and sends, locks and settles through
its compiled paths (:meth:`SimulationSession.send_compiled
<repro.engine.session.SimulationSession.send_compiled>`), never
re-resolving a node tuple (``isp-waterfilling``: 5.78 → 5.09 s median
wall, 0.88×, over ten alternating pairs on a 2-vCPU host).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["WaterfillingScheme"]

_EPS = 1e-9


class WaterfillingScheme(RoutingScheme):
    """Spider's waterfilling heuristic over k edge-disjoint paths."""

    name = "spider-waterfilling"
    atomic = False

    def __init__(self, num_paths: int = 4):
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        self.num_paths = num_paths

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        handle = runtime.path_handle(payment.source, payment.dest, self.num_paths)
        if handle is None:
            runtime.fail_payment(payment)
            return
        table = runtime.network.path_table
        # One batched probe for the whole path set; the table refreshes
        # only the paths whose channels changed since the pair's last
        # probe, so retries and polls stop re-walking unchanged paths.
        availability = table.bottleneck_many(handle)
        cpaths = handle.cpaths
        config = runtime.config
        min_unit = config.min_unit_value
        mtu = config.mtu
        send = runtime.send_compiled
        remaining = payment.remaining  # moves only when a unit is sent
        while remaining >= min_unit:
            # Waterfill: take the path with the largest remaining estimate
            # (the first one on a tie).
            headroom = max(availability)
            if headroom < min_unit:
                break
            best = availability.index(headroom)
            amount = min(headroom, remaining, mtu)
            if not send(payment, cpaths[best], amount):
                # Either the estimate was stale (another payment raced us)
                # or the send was vetoed for a non-capacity reason (fee
                # budget, dust).  Re-probe; if the fresh estimate says the
                # same send would fit, capacity was not the problem — stop
                # using this path this round or we would spin forever.
                fresh = table.bottleneck(cpaths[best])
                if fresh >= amount - 1e-12 or fresh < min_unit:
                    availability[best] = 0.0
                else:
                    availability[best] = fresh
                continue
            availability[best] -= amount
            remaining = payment.remaining
