"""Spider (LP): offline fluid-optimal path weights.

§6.1: *"Spider (LP) solves the LP in Eq. (1) once based on the long-term
payment demands and uses the solution to set a weight for selecting each
path."*  The scheme therefore:

1. estimates the demand matrix from the full trace (the "long-term
   demands"),
2. solves the balanced-routing LP (eqs. 1–5) over k edge-disjoint shortest
   paths per pair, with channel capacities and the confirmation delay Δ,
3. splits every payment across its pair's paths proportionally to the LP
   flows.

Pairs assigned zero flow by the LP are never attempted — the paper calls
out exactly this failure mode ("the LP assigns zero flows to all paths for
certain commodities which means no payments between them will ever get
attempted"), and it is why Spider-LP's success volume collapses to the
circulation share of the demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.fluid.lp import solve_fluid_lp
from repro.routing.base import RoutingScheme
from repro.workload.demand import estimate_demand_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.pathtable import CompiledPath
    from repro.engine.session import SimulationSession

__all__ = ["SpiderLPScheme"]

_EPS = 1e-9


class SpiderLPScheme(RoutingScheme):
    """Offline LP-weighted multipath splitting (non-atomic)."""

    name = "spider-lp"
    atomic = False
    num_paths = 4

    def __init__(self, num_paths: int = num_paths, rebalancing_gamma: Optional[float] = None):
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        self.num_paths = num_paths
        #: If set, solve the rebalancing LP (eqs. 6–11) with this γ instead
        #: of the pure balanced LP — an extension experiment.
        self.rebalancing_gamma = rebalancing_gamma
        self._weights: Dict[Tuple[int, int], List[Tuple["CompiledPath", float]]] = {}

    def prepare(self, runtime: "SimulationSession") -> None:
        view = runtime.network.path_service.view(k=self.num_paths)
        demands = estimate_demand_matrix(runtime.records, duration=runtime.end_time)
        demands = {pair: rate for pair, rate in demands.items() if rate > _EPS}
        if not demands:
            self._weights = {}
            return
        # One batched discovery pass over the demand pairs (and one disk
        # flush, when the session persists path artifacts).
        view.prepare(sorted(demands))
        path_set = {}
        for pair in demands:
            paths = view.paths(*pair)
            if paths:
                path_set[pair] = paths
        demands = {pair: demands[pair] for pair in path_set}
        network = runtime.network
        capacities = {
            network.endpoints_of(cid): capacity
            for cid, capacity in enumerate(network.state_store.capacity_view.tolist())
        }
        gamma = self.rebalancing_gamma
        solution = solve_fluid_lp(
            demands,
            path_set,
            capacities=capacities,
            delta=max(runtime.config.confirmation_delay, 1e-3),
            balance="equality" if gamma is None else "rebalance",
            gamma=0.0 if gamma is None else gamma,
        )
        # The weighted paths are compiled into store indices once (the
        # table's memo); the attempts probe and send on them.
        compile = runtime.network.path_table.compile
        self._weights = {}
        for pair in demands:
            flows = solution.flows_for_pair(pair)
            total = sum(flows.values())
            if total <= _EPS:
                continue
            self._weights[pair] = sorted(
                ((compile(path), rate / total) for path, rate in flows.items()),
                key=lambda item: -item[1],
            )

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        weighted = self._weights.get((payment.source, payment.dest))
        if not weighted:
            # Zero LP flow: this commodity is never routed (see module doc).
            runtime.fail_payment(payment)
            return
        min_unit = runtime.config.min_unit_value
        table = runtime.network.path_table
        for cpath, weight in weighted:
            if payment.remaining < min_unit:
                break
            # Target this attempt's share for the path; the LP weight splits
            # the *remaining* value so repeated polls converge to the split.
            target = payment.remaining * weight
            sent = 0.0
            while sent < target - _EPS and payment.remaining >= min_unit:
                # What the path delivers with its fees included: a raw
                # bottleneck would bounce on a fee-loaded upstream hop.
                available = table.deliverable(cpath)
                amount = min(available, target - sent, payment.remaining, runtime.config.mtu)
                if amount < min_unit:
                    break
                if not runtime.send_compiled(payment, cpath, amount):
                    break
                sent += amount
