"""Max-flow routing baseline.

§3: *"For each transaction, max-flow uses a distributed implementation of
the Ford–Fulkerson method to find source-destination paths that support the
largest transaction volume.  If this volume exceeds the transaction value,
the transaction succeeds."*  The paper calls it the throughput gold standard
with prohibitive per-transaction cost (O(|V|·|E|²)).

This module implements, from scratch:

* Edmonds–Karp (BFS Ford–Fulkerson) over the *directional spendable
  balances* of the payment network, and
* path decomposition of the resulting flow,

and wraps them in an atomic scheme: if max-flow ≥ payment amount, the
payment is locked across the decomposed paths all-or-nothing; otherwise it
fails immediately.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.pathtable import CompiledPath
    from repro.engine.session import SimulationSession
    from repro.network.network import PaymentNetwork

__all__ = ["MaxFlowScheme", "edmonds_karp", "decompose_flow"]

Path = Tuple[int, ...]
_EPS = 1e-9


def edmonds_karp(
    capacity: Dict[Tuple[int, int], float],
    source: int,
    sink: int,
    limit: Optional[float] = None,
) -> Tuple[float, Dict[Tuple[int, int], float]]:
    """Maximum flow on a directed capacity map via Edmonds–Karp.

    Parameters
    ----------
    capacity:
        ``{(u, v): capacity}`` — directed; both orientations may appear
        (payment channels have independent spendable balances per
        direction).
    limit:
        Optional early-exit once the flow reaches this value (routing only
        needs "≥ payment amount", not the true maximum).

    Returns
    -------
    (value, flow):
        Total flow value and the *net* per-edge flow map (only positive
        entries).
    """
    adjacency: Dict[int, List[int]] = {}
    residual: Dict[Tuple[int, int], float] = {}
    for (u, v), cap in capacity.items():
        if cap <= _EPS:
            continue
        residual[(u, v)] = residual.get((u, v), 0.0) + cap
        residual.setdefault((v, u), 0.0)
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for neighbours in adjacency.values():
        neighbours.sort()

    value = 0.0
    while limit is None or value < limit - _EPS:
        # BFS for the shortest augmenting path in the residual graph.
        parent: Dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            for neighbour in adjacency.get(node, ()):
                if neighbour in parent or residual.get((node, neighbour), 0.0) <= _EPS:
                    continue
                parent[neighbour] = node
                queue.append(neighbour)
        if sink not in parent:
            break
        # Reconstruct and augment.
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        bottleneck = min(
            residual[(a, b)] for a, b in zip(path, path[1:])
        )
        if limit is not None:
            bottleneck = min(bottleneck, limit - value)
        for a, b in zip(path, path[1:]):
            residual[(a, b)] -= bottleneck
            residual[(b, a)] += bottleneck
        value += bottleneck

    flow: Dict[Tuple[int, int], float] = {}
    for (u, v), cap in capacity.items():
        if cap <= _EPS:
            continue
        used = cap - residual.get((u, v), cap)
        if used > _EPS:
            flow[(u, v)] = flow.get((u, v), 0.0) + used
    # Convert to net flow so opposite directions cancel.
    net: Dict[Tuple[int, int], float] = {}
    for (u, v), f in flow.items():
        reverse = flow.get((v, u), 0.0)
        if f > reverse + _EPS:
            net[(u, v)] = f - reverse
    return value, net


def decompose_flow(
    flow: Dict[Tuple[int, int], float],
    source: int,
    sink: int,
) -> List[Tuple[Path, float]]:
    """Decompose an s-t flow into simple paths with values.

    Repeatedly extracts the BFS shortest path in the flow's support graph
    and subtracts its bottleneck.  Residual flow cycles (which carry no s-t
    value) are discarded.
    """
    remaining = {e: v for e, v in flow.items() if v > _EPS}
    paths: List[Tuple[Path, float]] = []
    while True:
        adjacency: Dict[int, List[int]] = {}
        for (u, v) in remaining:
            adjacency.setdefault(u, []).append(v)
        for neighbours in adjacency.values():
            neighbours.sort()
        parent: Dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            for neighbour in adjacency.get(node, ()):
                if neighbour not in parent:
                    parent[neighbour] = node
                    queue.append(neighbour)
        if sink not in parent:
            break
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        edges = list(zip(path, path[1:]))
        bottleneck = min(remaining[e] for e in edges)
        for e in edges:
            remaining[e] -= bottleneck
            if remaining[e] <= _EPS:
                del remaining[e]
        paths.append((tuple(path), bottleneck))
    return paths


class MaxFlowScheme(RoutingScheme):
    """Per-transaction max-flow routing (atomic)."""

    name = "max-flow"
    atomic = True

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        capacity = self._directional_balances(runtime.network)
        value, flow = edmonds_karp(
            capacity, payment.source, payment.dest, limit=payment.amount
        )
        if value < payment.amount - 1e-6:
            runtime.fail_payment(payment)
            return
        compile = runtime.network.path_table.compile
        allocations: List[Tuple["CompiledPath", float]] = []
        needed = payment.amount
        for path, path_value in decompose_flow(flow, payment.source, payment.dest):
            if needed <= _EPS:
                break
            take = min(path_value, needed)
            allocations.append((compile(path), take))
            needed -= take
        if needed > 1e-6 or not runtime.send_atomic(payment, allocations):
            runtime.fail_payment(payment)

    @staticmethod
    def _directional_balances(network: "PaymentNetwork") -> Dict[Tuple[int, int], float]:
        # Direction d's sender holds balance_flat[d].
        balances = network.state_store.balance_view.reshape(-1).tolist()
        return dict(zip(network.directed_edges(), balances))
