"""Shortest-path packet-switched baseline.

The paper's own baseline for its packet-switched architecture (§6.1):
*"We implemented shortest-path routing with non-atomic payments as another
baseline for our packet-switched network."*

Every payment uses the single BFS shortest path for its pair; MTU-bounded
units are sent whenever the path has capacity, and the remainder waits in
the global queue for the next poll.  The only difference from Spider
(Waterfilling) is the absence of multipath and imbalance awareness — which
is exactly the gap Figs. 6 and 7 measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["ShortestPathScheme"]


class ShortestPathScheme(RoutingScheme):
    """Single-shortest-path, non-atomic, queue-and-retry routing.

    Declares ``cohort_rule = "shortest-path"``: the decision sequence is
    ``send_on_path`` over one static path — a bottleneck re-probe before
    every unit — which the session's
    :class:`~repro.engine.dispatch.DispatchPlan` replays against its
    residual-capacity overlay for whole same-tick cohorts (one grouped
    probe, one scatter-add lock), byte-identical to this method.
    """

    name = "shortest-path"
    atomic = False
    num_paths = 1
    cohort_rule = "shortest-path"

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        path = self.path_cache.shortest(payment.source, payment.dest)
        if path is None:
            runtime.fail_payment(payment)
            return
        runtime.send_on_path(payment, path)
