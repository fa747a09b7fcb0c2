"""Payment graphs, circulations, and the throughput bound of Proposition 1.

§5.2.2 of the paper: the *payment graph* H captures who wants to pay whom and
at what rate.  Its *maximum circulation* ν(C*) — the largest sub-demand whose
in- and out-rates balance at every node — is exactly the maximum throughput
achievable by any perfectly balanced routing scheme, on any topology with
ample capacity (Proposition 1).  The residual H − C* is a DAG and is not
routable without on-chain rebalancing.

This module provides two independent computations of ν(C*) (an LP and a
combinatorial cycle-cancelling algorithm — each cross-checks the other in
the test suite), the circulation/DAG decomposition of Fig. 5, cycle peeling,
and the constructive spanning-tree routing used in the proof of Prop. 1.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ReproError, TopologyError

__all__ = [
    "PaymentGraph",
    "CirculationDecomposition",
    "max_circulation_lp",
    "max_circulation_cycle_cancelling",
    "decompose_payment_graph",
    "peel_cycles",
    "is_circulation",
    "is_dag",
    "route_circulation_on_tree",
    "bfs_spanning_tree",
]

NodeId = Hashable
DirectedEdge = Tuple[NodeId, NodeId]

_EPS = 1e-9


class PaymentGraph:
    """A weighted directed graph of payment demands d_{i,j} > 0.

    The graph is independent of the channel topology; it only describes the
    pattern of payments (§5.2.2).
    """

    def __init__(self, demands: Optional[Mapping[DirectedEdge, float]] = None):
        self._demands: Dict[DirectedEdge, float] = {}
        if demands:
            for (i, j), rate in demands.items():
                self.add_demand(i, j, rate)

    def add_demand(self, source: NodeId, dest: NodeId, rate: float) -> None:
        """Add (accumulate) demand at ``rate > 0`` from ``source`` to ``dest``."""
        if source == dest:
            raise ReproError(f"self-demand at node {source!r} is not allowed")
        if rate <= 0:
            raise ReproError(f"demand rate must be positive, got {rate!r}")
        self._demands[(source, dest)] = self._demands.get((source, dest), 0.0) + rate

    # ------------------------------------------------------------------
    @property
    def demands(self) -> Dict[DirectedEdge, float]:
        """Copy of the demand map ``{(i, j): rate}``."""
        return dict(self._demands)

    def rate(self, source: NodeId, dest: NodeId) -> float:
        """Demand from ``source`` to ``dest`` (0 if absent)."""
        return self._demands.get((source, dest), 0.0)

    def nodes(self) -> List[NodeId]:
        """Sorted list of nodes appearing in any demand."""
        seen = set()
        for i, j in self._demands:
            seen.add(i)
            seen.add(j)
        return sorted(seen, key=repr)

    def edges(self) -> List[DirectedEdge]:
        """Demand edges in deterministic order."""
        return sorted(self._demands, key=lambda e: (repr(e[0]), repr(e[1])))

    def total_demand(self) -> float:
        """Σ d_{i,j} — the throughput of an ideal, unconstrained network."""
        return float(sum(self._demands.values()))

    def out_rate(self, node: NodeId) -> float:
        """Total demand originating at ``node``."""
        return float(sum(r for (i, _), r in self._demands.items() if i == node))

    def in_rate(self, node: NodeId) -> float:
        """Total demand terminating at ``node``."""
        return float(sum(r for (_, j), r in self._demands.items() if j == node))

    def __len__(self) -> int:
        return len(self._demands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaymentGraph(edges={len(self._demands)}, total={self.total_demand():.6g})"


def is_circulation(flows: Mapping[DirectedEdge, float], tolerance: float = 1e-6) -> bool:
    """Whether ``flows`` balances (in-rate == out-rate) at every node."""
    net: Dict[NodeId, float] = defaultdict(float)
    for (i, j), value in flows.items():
        net[i] -= value
        net[j] += value
    return all(abs(v) <= tolerance for v in net.values())


def is_dag(edges: Iterable[DirectedEdge]) -> bool:
    """Kahn's algorithm acyclicity check on the directed edge set."""
    out_adj: Dict[NodeId, List[NodeId]] = defaultdict(list)
    in_degree: Dict[NodeId, int] = defaultdict(int)
    nodes = set()
    for u, v in edges:
        out_adj[u].append(v)
        in_degree[v] += 1
        nodes.add(u)
        nodes.add(v)
    queue = deque(n for n in nodes if in_degree[n] == 0)
    visited = 0
    while queue:
        node = queue.popleft()
        visited += 1
        for succ in out_adj[node]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                queue.append(succ)
    return visited == len(nodes)


# ----------------------------------------------------------------------
# Maximum circulation, twice (LP and combinatorial)
# ----------------------------------------------------------------------
def max_circulation_lp(graph: PaymentGraph) -> Dict[DirectedEdge, float]:
    """ν(C*) via linear programming.

    maximise Σ_e f_e  subject to  0 ≤ f_e ≤ d_e  and flow conservation at
    every node.  Solved with HiGHS through :func:`scipy.optimize.linprog`.
    """
    edges = graph.edges()
    if not edges:
        return {}
    nodes = graph.nodes()
    node_index = {n: idx for idx, n in enumerate(nodes)}
    num_edges = len(edges)
    demands = graph.demands

    objective = -np.ones(num_edges)
    conservation = np.zeros((len(nodes), num_edges))
    for col, (i, j) in enumerate(edges):
        conservation[node_index[i], col] -= 1.0
        conservation[node_index[j], col] += 1.0
    bounds = [(0.0, demands[e]) for e in edges]
    # Imported here: scipy.optimize adds ~24 MB of RSS, and only the LP
    # schemes and analyses ever solve an LP.
    from scipy.optimize import linprog

    result = linprog(
        objective,
        A_eq=conservation,
        b_eq=np.zeros(len(nodes)),
        bounds=bounds,
        method="highs",
    )
    if not result.success:  # pragma: no cover - LP is always feasible (f = 0)
        raise ReproError(f"max-circulation LP failed: {result.message}")
    return {
        e: float(v) for e, v in zip(edges, result.x) if v > _EPS
    }


def _find_augmenting_cycle(
    residual: Dict[DirectedEdge, float],
) -> Optional[List[NodeId]]:
    """Find any directed cycle in the positive-residual graph (DFS)."""
    out_adj: Dict[NodeId, List[NodeId]] = defaultdict(list)
    for (u, v), cap in residual.items():
        if cap > _EPS:
            out_adj[u].append(v)
    for neighbours in out_adj.values():
        neighbours.sort(key=repr)

    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[NodeId, int] = defaultdict(int)
    parent: Dict[NodeId, NodeId] = {}

    for start in sorted(out_adj, key=repr):
        if color[start] != WHITE:
            continue
        stack: List[Tuple[NodeId, Iterator]] = [(start, iter(out_adj[start]))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if color[succ] == GRAY:
                    # Found a cycle: unwind from node back to succ.
                    cycle = [node]
                    while cycle[-1] != succ:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    parent[succ] = node
                    stack.append((succ, iter(out_adj[succ])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def max_circulation_cycle_cancelling(
    graph: PaymentGraph,
    max_iterations: int = 100_000,
) -> Dict[DirectedEdge, float]:
    """ν(C*) via negative-cycle cancelling.

    The paper's prose suggests peeling forward cycles greedily, but greedy
    peeling only yields a *maximal* circulation: a short cycle can saturate
    an edge a longer cycle needed, losing value.  The exact combinatorial
    algorithm treats the problem as a min-cost circulation with cost −1 per
    unit of flow on every demand edge: starting from zero flow, repeatedly
    find a negative-cost cycle in the residual graph (forward arcs cost −1,
    backward arcs cost +1) and saturate it.  When no negative cycle remains,
    the circulation is maximum.  Cross-checked against
    :func:`max_circulation_lp` in the test suite.
    """
    edges = graph.edges()
    if not edges:
        return {}
    demands = graph.demands
    flow: Dict[DirectedEdge, float] = {e: 0.0 for e in edges}
    nodes = graph.nodes()

    for _ in range(max_iterations):
        cycle_arcs = _find_negative_residual_cycle(nodes, edges, demands, flow)
        if cycle_arcs is None:
            return {e: v for e, v in flow.items() if v > _EPS}
        bottleneck = min(
            (demands[e] - flow[e]) if forward else flow[e]
            for e, forward in cycle_arcs
        )
        if bottleneck <= _EPS:  # pragma: no cover - defensive
            return {e: v for e, v in flow.items() if v > _EPS}
        for e, forward in cycle_arcs:
            flow[e] += bottleneck if forward else -bottleneck
    raise ReproError("cycle cancelling did not converge")  # pragma: no cover


def _find_negative_residual_cycle(
    nodes: List[NodeId],
    edges: List[DirectedEdge],
    demands: Mapping[DirectedEdge, float],
    flow: Mapping[DirectedEdge, float],
) -> Optional[List[Tuple[DirectedEdge, bool]]]:
    """Bellman–Ford negative-cycle detection on the residual graph.

    Residual arcs: for each demand edge e = (u, v), a forward arc u→v with
    cost −1 while f_e < d_e, and a backward arc v→u with cost +1 while
    f_e > 0.  Returns the cycle as ``[(edge, is_forward), ...]`` or ``None``.
    """
    arcs: List[Tuple[NodeId, NodeId, float, DirectedEdge, bool]] = []
    for e in edges:
        u, v = e
        if demands[e] - flow[e] > _EPS:
            arcs.append((u, v, -1.0, e, True))
        if flow[e] > _EPS:
            arcs.append((v, u, 1.0, e, False))
    if not arcs:
        return None

    # Virtual-source Bellman-Ford: all distances start at 0.
    dist: Dict[NodeId, float] = {n: 0.0 for n in nodes}
    pred: Dict[NodeId, Tuple[NodeId, DirectedEdge, bool]] = {}
    cycle_entry: Optional[NodeId] = None
    for _ in range(len(nodes)):
        cycle_entry = None
        for u, v, cost, e, forward in arcs:
            if dist[u] + cost < dist[v] - 1e-12:
                dist[v] = dist[u] + cost
                pred[v] = (u, e, forward)
                cycle_entry = v
        if cycle_entry is None:
            return None
    # A relaxation occurred on the |V|-th pass: walk predecessors back |V|
    # steps to land inside the negative cycle, then extract it.
    node = cycle_entry
    for _ in range(len(nodes)):
        node = pred[node][0]
    cycle_arcs: List[Tuple[DirectedEdge, bool]] = []
    start = node
    while True:
        prev, e, forward = pred[node]
        cycle_arcs.append((e, forward))
        node = prev
        if node == start:
            break
    cycle_arcs.reverse()
    return cycle_arcs


@dataclass
class CirculationDecomposition:
    """The Fig. 5 decomposition H = C* + DAG.

    Attributes
    ----------
    circulation:
        Edge flows of a maximum circulation C*.
    dag:
        The remaining demand, guaranteed acyclic.
    value:
        ν(C*), the balanced-throughput upper bound of Prop. 1.
    total_demand:
        Σ d_{i,j} of the original payment graph.
    """

    circulation: Dict[DirectedEdge, float]
    dag: Dict[DirectedEdge, float]
    value: float
    total_demand: float

    @property
    def dag_value(self) -> float:
        """Total demand stuck in the DAG component."""
        return float(sum(self.dag.values()))

    @property
    def circulation_fraction(self) -> float:
        """ν(C*) / total demand — e.g. 8/12 = 75% for the paper's example."""
        if self.total_demand <= 0:
            return 0.0
        return self.value / self.total_demand


def decompose_payment_graph(
    graph: PaymentGraph,
    method: str = "cycle-cancelling",
) -> CirculationDecomposition:
    """Split a payment graph into maximum circulation + DAG (Fig. 5).

    ``method`` selects the ν(C*) computation: ``"cycle-cancelling"``
    (combinatorial, default) or ``"lp"``.
    """
    if method == "cycle-cancelling":
        circulation = max_circulation_cycle_cancelling(graph)
    elif method == "lp":
        circulation = max_circulation_lp(graph)
    else:
        raise ValueError(f"unknown method {method!r}")
    demands = graph.demands
    dag = {}
    for edge, rate in demands.items():
        remaining = rate - circulation.get(edge, 0.0)
        if remaining > _EPS:
            dag[edge] = remaining
    if not is_circulation(circulation):
        raise ReproError("internal error: extracted component is not a circulation")
    if not is_dag(dag):
        raise ReproError("internal error: residual demand contains a cycle")
    return CirculationDecomposition(
        circulation=circulation,
        dag=dag,
        value=float(sum(circulation.values())),
        total_demand=graph.total_demand(),
    )


def peel_cycles(
    circulation: Mapping[DirectedEdge, float],
) -> List[Tuple[List[NodeId], float]]:
    """Decompose a circulation into simple cycles of constant flow.

    Returns ``[(cycle_nodes, value), ...]`` whose edge-wise sum reproduces
    the input.  Any circulation admits such a decomposition.
    """
    residual = {e: v for e, v in circulation.items() if v > _EPS}
    cycles: List[Tuple[List[NodeId], float]] = []
    while residual:
        cycle = _find_augmenting_cycle(residual)
        if cycle is None:
            raise ReproError("input is not a circulation: positive residual without cycles")
        cycle_edges = list(zip(cycle, cycle[1:] + [cycle[0]]))
        bottleneck = min(residual[e] for e in cycle_edges)
        for e in cycle_edges:
            residual[e] -= bottleneck
            if residual[e] <= _EPS:
                del residual[e]
        cycles.append((cycle, bottleneck))
    return cycles


# ----------------------------------------------------------------------
# Proposition 1: constructive routing of a circulation on a spanning tree
# ----------------------------------------------------------------------
def bfs_spanning_tree(
    adjacency: Mapping[NodeId, Iterable[NodeId]],
    root: Optional[NodeId] = None,
) -> Dict[NodeId, NodeId]:
    """Spanning tree as a parent map (root maps to itself).

    Raises :class:`~repro.errors.TopologyError` on disconnected input.
    """
    nodes = sorted(adjacency, key=repr)
    if not nodes:
        return {}
    if root is None:
        root = nodes[0]
    parent = {root: root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbour in sorted(adjacency[node], key=repr):
            if neighbour not in parent:
                parent[neighbour] = node
                queue.append(neighbour)
    if len(parent) != len(nodes):
        raise TopologyError("graph is disconnected; no spanning tree exists")
    return parent


def _tree_path(parent: Mapping[NodeId, NodeId], source: NodeId, target: NodeId) -> List[NodeId]:
    """Unique path between two nodes of a tree given as a parent map."""

    def ancestry(node: NodeId) -> List[NodeId]:
        chain = [node]
        while parent[chain[-1]] != chain[-1]:
            chain.append(parent[chain[-1]])
        return chain

    up_source = ancestry(source)
    up_target = ancestry(target)
    target_index = {n: i for i, n in enumerate(up_target)}
    for i, node in enumerate(up_source):
        if node in target_index:
            jointer = target_index[node]
            return up_source[: i + 1] + list(reversed(up_target[:jointer]))
    raise TopologyError("nodes are in different trees")  # pragma: no cover


def route_circulation_on_tree(
    circulation: Mapping[DirectedEdge, float],
    adjacency: Mapping[NodeId, Iterable[NodeId]],
    root: Optional[NodeId] = None,
) -> Dict[DirectedEdge, float]:
    """The constructive half of Proposition 1.

    Routes every circulation demand along the unique spanning-tree path and
    returns the resulting *directed* per-edge flows.  The proposition
    guarantees the result is perfectly balanced: flow(u→v) == flow(v→u) on
    every tree edge.  Callers (and the test suite) can verify this with
    :func:`is_circulation`-style balance checks on the returned flows.
    """
    parent = bfs_spanning_tree(adjacency, root=root)
    edge_flows: Dict[DirectedEdge, float] = defaultdict(float)
    for (source, target), value in circulation.items():
        if value <= 0:
            continue
        path = _tree_path(parent, source, target)
        for u, v in zip(path, path[1:]):
            edge_flows[(u, v)] += value
    return dict(edge_flows)
