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

    The decision sequence is ``send_on_path`` over one static path — a
    bottleneck re-probe before every unit.  The session's
    :class:`~repro.engine.dispatch.DispatchPlan` runs this method per
    payment: a cohort replay of it measured no faster (isp, 30k payments:
    2.91/2.84 s sequential vs 3.66/2.84 s replayed), so the scheme
    declares no ``cohort_rule``.
    """

    name = "shortest-path"
    atomic = False
    num_paths = 1

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        handle = runtime.path_handle(payment.source, payment.dest, self.num_paths)
        if handle is None:
            runtime.fail_payment(payment)
            return
        runtime.send_on_path(payment, handle.cpaths[0])
