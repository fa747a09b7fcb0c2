"""Path enumeration for routing and the fluid LPs.

The fluid model (§5.2) works over path sets P_{i,j}; the practical schemes
(§5.3.1) restrict each pair to a small path set — the paper uses "4 disjoint
shortest paths" per source/destination pair.  This module provides, from
scratch:

* BFS shortest paths (deterministic tie-breaking by sorted neighbour order),
* exhaustive simple-path enumeration (for small graphs / exact LPs),
* Yen's algorithm for k loopless shortest paths,
* k edge-disjoint shortest paths (successive BFS with edge removal), the
  paper's construction.

All functions accept adjacency dicts (``node -> iterable of neighbours``)
such as :meth:`repro.topology.base.Topology.adjacency` returns.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.engine.pathservice import PathService
from repro.errors import NoPathError

__all__ = [
    "bfs_shortest_path",
    "bfs_distances",
    "all_simple_paths",
    "k_shortest_paths",
    "k_edge_disjoint_paths",
    "build_path_set",
    "path_edges",
]

NodeId = Hashable
Path = Tuple[NodeId, ...]
Adjacency = Dict[NodeId, Iterable[NodeId]]


def path_edges(path: Sequence[NodeId]) -> List[Tuple[NodeId, NodeId]]:
    """Directed edge list of a path: [(p0,p1), (p1,p2), ...]."""
    return list(zip(path, path[1:]))


def _sorted_neighbors(adj: Adjacency, node: NodeId) -> List[NodeId]:
    try:
        return sorted(adj[node])
    except TypeError:
        return sorted(adj[node], key=repr)


def bfs_shortest_path(
    adj: Adjacency,
    source: NodeId,
    target: NodeId,
    forbidden_edges: Optional[set] = None,
) -> Optional[Path]:
    """Hop-count shortest path, or ``None`` if unreachable.

    ``forbidden_edges`` is a set of *directed* (u, v) pairs excluded from
    traversal (both orientations must be listed to forbid an undirected
    edge); used by the edge-disjoint construction.
    """
    if source == target:
        return (source,)
    if source not in adj or target not in adj:
        return None
    forbidden = forbidden_edges or set()
    parent: Dict[NodeId, NodeId] = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in _sorted_neighbors(adj, node):
            if neighbour in parent or (node, neighbour) in forbidden:
                continue
            parent[neighbour] = node
            if neighbour == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            queue.append(neighbour)
    return None


def bfs_distances(adj: Adjacency, source: NodeId) -> Dict[NodeId, int]:
    """Hop distances from ``source`` to every reachable node."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in _sorted_neighbors(adj, node):
            if neighbour not in dist:
                dist[neighbour] = dist[node] + 1
                queue.append(neighbour)
    return dist


def all_simple_paths(
    adj: Adjacency,
    source: NodeId,
    target: NodeId,
    cutoff: Optional[int] = None,
) -> List[Path]:
    """Every simple path from ``source`` to ``target`` (DFS).

    ``cutoff`` bounds path length in hops.  Exponential in general — intended
    for the small example graphs where the fluid LP wants the complete path
    set P_{i,j}.
    Paths are returned sorted by (length, lexicographic) for determinism.
    """
    if source not in adj or target not in adj:
        return []
    limit = cutoff if cutoff is not None else len(adj) - 1
    results: List[Path] = []
    stack: List[NodeId] = [source]
    on_path = {source}

    def dfs(node: NodeId) -> None:
        if len(stack) - 1 > limit:
            return
        if node == target:
            results.append(tuple(stack))
            return
        if len(stack) - 1 == limit:
            return
        for neighbour in _sorted_neighbors(adj, node):
            if neighbour in on_path:
                continue
            stack.append(neighbour)
            on_path.add(neighbour)
            dfs(neighbour)
            stack.pop()
            on_path.discard(neighbour)

    dfs(source)
    results.sort(key=lambda p: (len(p), tuple(repr(n) for n in p)))
    return results


def k_shortest_paths(adj: Adjacency, source: NodeId, target: NodeId, k: int) -> List[Path]:
    """Yen's algorithm: up to ``k`` loopless shortest paths by hop count."""
    if k <= 0:
        return []
    first = bfs_shortest_path(adj, source, target)
    if first is None:
        return []
    accepted: List[Path] = [first]
    candidates: List[Path] = []
    while len(accepted) < k:
        prev = accepted[-1]
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            forbidden_edges = set()
            for path in accepted:
                if len(path) > i and path[: i + 1] == root:
                    forbidden_edges.add((path[i], path[i + 1]))
                    forbidden_edges.add((path[i + 1], path[i]))
            # Nodes on the root (except the spur) must not be revisited:
            # emulate removal by forbidding all their incident edges.
            banned_nodes = set(root[:-1])
            for node in banned_nodes:
                for neighbour in adj[node]:
                    forbidden_edges.add((node, neighbour))
                    forbidden_edges.add((neighbour, node))
            spur = bfs_shortest_path(adj, spur_node, target, forbidden_edges)
            if spur is None:
                continue
            candidate = root[:-1] + spur
            if candidate not in accepted and candidate not in candidates:
                candidates.append(candidate)
        if not candidates:
            break
        candidates.sort(key=lambda p: (len(p), tuple(repr(n) for n in p)))
        accepted.append(candidates.pop(0))
    return accepted


def k_edge_disjoint_paths(
    adj: Adjacency,
    source: NodeId,
    target: NodeId,
    k: int,
) -> List[Path]:
    """Up to ``k`` mutually edge-disjoint shortest paths.

    This is the paper's path set ("4 disjoint shortest paths", §6.1):
    repeatedly take the BFS shortest path and remove its edges (both
    directions) before searching again.  Greedy, deterministic.
    """
    if k <= 0:
        return []
    forbidden: set = set()
    paths: List[Path] = []
    for _ in range(k):
        path = bfs_shortest_path(adj, source, target, forbidden_edges=forbidden)
        if path is None:
            break
        paths.append(path)
        for u, v in path_edges(path):
            forbidden.add((u, v))
            forbidden.add((v, u))
    return paths


def build_path_set(
    adj: Adjacency,
    pairs: Iterable[Tuple[NodeId, NodeId]],
    k: int = 4,
    method: str = "edge-disjoint",
    cutoff: Optional[int] = None,
) -> Dict[Tuple[NodeId, NodeId], List[Path]]:
    """Compute the path set P_{i,j} for every requested pair.

    Parameters
    ----------
    method:
        ``"edge-disjoint"`` (paper default), ``"yen"`` (k loopless shortest),
        or ``"all"`` (every simple path up to ``cutoff`` hops — exact fluid
        model on small graphs).
    k:
        Path budget for the first two methods.

    Raises
    ------
    NoPathError
        If some requested pair is disconnected.

    Notes
    -----
    ``edge-disjoint`` sets are discovered through a
    :class:`~repro.engine.pathservice.PathService` view over ``adj`` — the
    CSR bidirectional search plus the process-wide pair memoisation — so
    fluid LP / primal-dual path-set construction shares artifacts with the
    routing schemes; ``adj`` must then be undirected with orderable node
    ids (:class:`~repro.errors.TopologyError` otherwise).  ``yen`` and
    ``all`` enumerate per pair in place.
    """
    pair_list = list(pairs)
    if method == "edge-disjoint":
        found = PathService.from_adjacency(adj).view(k).paths_many(pair_list)
    elif method == "yen":
        found = [k_shortest_paths(adj, s, t, k) for s, t in pair_list]
    elif method == "all":
        found = [all_simple_paths(adj, s, t, cutoff=cutoff) for s, t in pair_list]
    else:
        raise ValueError(f"unknown path method {method!r}")
    path_set: Dict[Tuple[NodeId, NodeId], List[Path]] = {}
    for (source, target), paths in zip(pair_list, found):
        if not paths:
            raise NoPathError(f"no path from {source!r} to {target!r}")
        path_set[(source, target)] = paths
    return path_set
