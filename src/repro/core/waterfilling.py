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

The scheme declares ``cohort_rule = "waterfilling"``: its decision loop is
pure array arithmetic over the probe estimates, so the session's
:class:`~repro.engine.dispatch.DispatchPlan` replays it over whole
same-tick cohorts — one grouped probe refresh, per-payment argmax/min
decisions with fee-aware per-hop staging, one scatter-add lock.  Path sets
that share channels (with each other or with earlier staged sends) replay
against the plan's residual-capacity overlay; only a *failing* lock —
whose rollback side effects the replay must not fake — falls back to
:meth:`attempt` exactly (flush-first).
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
    cohort_rule = "waterfilling"

    def __init__(self, num_paths: int = 4):
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        self.num_paths = num_paths

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        paths = self.path_cache.paths(payment.source, payment.dest)
        if not paths:
            runtime.fail_payment(payment)
            return
        # One batched probe for the whole path set; the table refreshes
        # only the paths whose channels changed since the pair's last
        # probe, so retries and polls stop re-walking unchanged paths.
        availability = runtime.network.bottleneck_many(paths)
        min_unit = runtime.config.min_unit_value
        while payment.remaining >= min_unit:
            # Waterfill: take the path with the largest remaining estimate.
            best = max(range(len(paths)), key=lambda i: availability[i])
            headroom = availability[best]
            if headroom < min_unit:
                break
            amount = min(headroom, payment.remaining, runtime.config.mtu)
            if not runtime.send_unit(payment, paths[best], amount):
                # Either the estimate was stale (another payment raced us)
                # or the send was vetoed for a non-capacity reason (fee
                # budget, dust).  Re-probe; if the fresh estimate says the
                # same send would fit, capacity was not the problem — stop
                # using this path this round or we would spin forever.
                fresh = runtime.network.bottleneck(paths[best])
                if fresh >= amount - 1e-12 or fresh < min_unit:
                    availability[best] = 0.0
                else:
                    availability[best] = fresh
                continue
            availability[best] -= amount
