"""First-class path discovery: the PathService facade and its providers.

The paper fixes every pair's path set before the run starts ("4 edge-disjoint
shortest paths", §6.1), so path discovery is a precomputable, shareable
artifact — yet the seed smeared it across three incompatible APIs
(:class:`repro.routing.base.PathCache`, :func:`repro.fluid.paths.build_path_set`
and ad-hoc BFS inside the landmark/LND/embedding schemes), each scheme
rebuilding its own cache per run.  At 10k-node scale the per-pair
``k_edge_disjoint_paths`` BFS dominated wall time (~10 ms/pair on 33k edges).

:class:`PathService` is now the only way the system discovers paths.  It
owns one sorted adjacency per network and serves every consumer through a
small provider protocol — ``prepare(pairs)`` / ``paths(src, dst)`` /
``paths_many(pairs)``:

* :class:`CsrDisjointProvider` — CSR adjacency (flat ``indptr``/``indices``
  arrays, rows sorted so the BFS tie-break is explicit) searched from both
  endpoints at once: level sets grow as NumPy index operations until they
  meet, and the path is read off the distances (the scalar BFS's parent
  chain is the lexicographically smallest shortest path, so no parent
  array is needed); the k-edge-disjoint loop masks CSR entries in place.
  Paths are **byte-identical** to the scalar per-pair BFS (pinned by
  ``tests/engine/test_pathservice.py``).
* :class:`ScalarDisjointProvider` — the legacy
  :func:`~repro.fluid.paths.k_edge_disjoint_paths` /
  :func:`~repro.fluid.paths.k_shortest_paths` loops, kept as the parity
  baseline behind ``PathService.vectorized_discovery = False`` (mirroring
  the PathTable / ControlPlane pattern).
* :class:`LandmarkProvider` — SilentWhispers pair assembly from shared BFS
  trees (one tree per landmark plus one per distinct source) instead of two
  fresh BFS runs per (pair, landmark).
* :class:`PersistentCache` — wraps any provider: memoises in-process
  (shared across networks with identical topology, keyed by a
  topology/k/method/provider hash) and persists path sets to disk next to
  the sweep JSON cache, so repeat runs and :class:`SweepExecutor` cells
  load discovery artifacts instead of recomputing them.

Discovery output feeds :meth:`repro.engine.pathtable.PathTable.compile_many`
directly, so pair list → path sets → compiled store-index arrays is one
pipeline.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import PaymentNetwork

import numpy as np

from repro.fluid.paths import k_edge_disjoint_paths, k_shortest_paths

__all__ = [
    "CsrGraph",
    "CsrDisjointProvider",
    "ScalarDisjointProvider",
    "LandmarkProvider",
    "PersistentCache",
    "PairPathView",
    "PathService",
    "contract_loops",
]

Path = Tuple[int, ...]
Pair = Tuple[int, int]


def contract_loops(path: Sequence[int]) -> Path:
    """Remove loops from a node sequence, keeping first occurrences.

    ``(s, a, b, a, d)`` contracts to ``(s, a, d)``: when a node re-appears,
    everything since its first visit is dropped.  The result is a simple
    path usable for HTLC locking (the landmark assembly step).
    """
    out: List[int] = []
    seen: Dict[int, int] = {}
    for node in path:
        if node in seen:
            del out[seen[node] + 1 :]
            for removed in list(seen):
                if seen[removed] > seen[node]:
                    del seen[removed]
            continue
        seen[node] = len(out)
        out.append(node)
    return tuple(out)


def _sorted_ids(ids: Iterable) -> Tuple[List, bool]:
    """``(sorted list, natural)`` — ``natural`` is False on the repr fallback."""
    try:
        return sorted(ids), True
    except TypeError:
        return sorted(ids, key=repr), False


# ----------------------------------------------------------------------
# CSR graph + full-tree array-frontier BFS
# ----------------------------------------------------------------------
class CsrGraph:
    """Sorted CSR adjacency over dense node indices.

    ``indices[indptr[i]:indptr[i+1]]`` are node ``i``'s neighbours in
    ascending index order; node ids are mapped to indices in ascending id
    order, so index order and id order agree and the BFS neighbour
    tie-break is the *explicit* sorted order the scalar
    :func:`~repro.fluid.paths.bfs_shortest_path` applies implicitly on
    every visit.  ``degree[i]`` is row ``i``'s length and ``twin[pos]``
    the CSR position of entry ``pos``'s reverse edge, so masking an
    undirected edge is two array writes.

    Two flags keep discovery on the scalar provider when the CSR kernels
    cannot reproduce it: ``consistent`` is False when the node ids are not
    totally ordered (repr-sort fallback, whose per-row sort semantics the
    layout cannot express), ``symmetric`` is False when some edge lacks
    its reverse (the bidirectional search reads the same entries from
    both endpoints; ``twin`` is meaningless then).
    """

    __slots__ = (
        "nodes",
        "index",
        "indptr",
        "indices",
        "degree",
        "twin",
        "consistent",
        "symmetric",
        "_arange",
    )

    def __init__(
        self,
        nodes: List,
        index: Dict,
        indptr: np.ndarray,
        indices: np.ndarray,
        consistent: bool,
    ):
        self.nodes = nodes
        self.index = index
        self.indptr = indptr
        self.indices = indices
        self.consistent = consistent
        # Entries are sorted by (owner, neighbour); sorting them by
        # (neighbour, owner) instead lists every reverse edge in the same
        # rank order, so on a symmetric graph the permutation itself is
        # the entry -> reverse-entry map.
        self.degree = np.diff(indptr)
        owners = np.repeat(
            np.arange(indptr.shape[0] - 1, dtype=np.int32), self.degree
        )
        self.twin = np.lexsort((owners, indices)).astype(np.int32)
        self.symmetric = bool(
            (indices[self.twin] == owners).all()
            and (owners[self.twin] == indices).all()
        )
        self._arange: Optional[np.ndarray] = None

    @property
    def arange(self) -> np.ndarray:
        """Shared ``0..max(E, n)`` ramp; kernels slice it instead of
        re-allocating an ``np.arange`` per BFS level."""
        if self._arange is None:
            self._arange = np.arange(
                max(self.indices.shape[0], self.indptr.shape[0]),
                dtype=np.int32,
            )
        return self._arange

    @classmethod
    def from_adjacency(cls, adjacency: Dict) -> "CsrGraph":
        """Compile an adjacency mapping into the sorted CSR layout."""
        nodes, natural = _sorted_ids(adjacency)
        index = {node: i for i, node in enumerate(nodes)}
        indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
        rows: List[np.ndarray] = []
        for i, node in enumerate(nodes):
            # unique = sort + dedup: parallel entries in the input would
            # otherwise leave the edge mask covering only one of them and
            # break the k-disjoint loop's edge removal.
            row = np.unique(
                np.fromiter(
                    (index[nb] for nb in adjacency[node]),
                    dtype=np.int32,
                )
            )
            rows.append(row)
            indptr[i + 1] = indptr[i] + row.shape[0]
        indices = (
            np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
        )
        return cls(nodes, index, indptr, indices, natural)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def fingerprint(self) -> str:
        """Stable hash of the graph structure (nodes + sorted edges)."""
        digest = hashlib.sha256()
        digest.update(repr(self.nodes).encode())
        digest.update(self.indptr.tobytes())
        digest.update(self.indices.tobytes())
        return digest.hexdigest()[:24]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CsrGraph(nodes={self.num_nodes}, "
            f"edges={self.indices.shape[0] // 2})"
        )


def _csr_level_bfs(graph: CsrGraph, source: int) -> np.ndarray:
    """Full array-frontier BFS tree over sorted CSR; returns the parent array.

    Whole levels expand as NumPy index operations: gather every frontier
    node's row and keep each node's *first occurrence* in candidate order
    — which is exactly the parent the scalar FIFO BFS assigns (frontier
    order × sorted-neighbour order), so parent chains are bit-identical to
    :func:`~repro.fluid.paths.bfs_shortest_path`.
    """
    indptr, indices = graph.indptr, graph.indices
    ramp = graph.arange
    num_nodes = indptr.shape[0] - 1
    parent = np.full(num_nodes, -1, dtype=np.int32)
    parent[source] = source
    # Scratch for the first-occurrence dedup below; never reset — every
    # entry read in a level was scatter-written in that same level.
    stamp = np.empty(num_nodes, dtype=np.int32)
    frontier = np.array([source], dtype=np.int32)
    while frontier.size:
        starts = indptr[frontier]
        deg = indptr[frontier + 1] - starts
        total = int(deg.sum())
        if total == 0:
            break
        csum = deg.cumsum()
        pos = ramp[:total] + (starts - (csum - deg)).repeat(deg)
        cand = indices[pos]
        # First occurrence of each candidate wins — the scalar FIFO parent
        # assignment — found in O(m) by a reversed scatter (later writes
        # win, so reversing makes the *earliest* position stick) instead
        # of a sort-based unique.  Already-visited candidates dedup too,
        # then drop in the (much smaller) per-node check below; their
        # presence never displaces a new node's first occurrence.
        order = ramp[:total]
        stamp[cand[::-1]] = order[::-1]
        sel = (stamp[cand] == order).nonzero()[0].astype(np.int32)
        fresh = cand[sel]
        new = parent[fresh] == -1
        if not new.all():
            fresh = fresh[new]
            sel = sel[new]
        if fresh.shape[0] == 0:
            break
        parent[fresh] = frontier.repeat(deg)[sel]
        frontier = fresh
    return parent


def _parent_chain(
    parent: np.ndarray, source: int, target: int
) -> Optional[List[int]]:
    """Source→target index path out of a BFS parent array, or ``None``."""
    if parent[target] == -1:
        return None
    chain = [target]
    while chain[-1] != source:
        chain.append(int(parent[chain[-1]]))
    chain.reverse()
    return chain


# ----------------------------------------------------------------------
# Providers (protocol: prepare(pairs) / paths(src, dst) / paths_many(pairs))
# ----------------------------------------------------------------------
class ScalarDisjointProvider:
    """The legacy per-pair BFS loops — the parity baseline provider."""

    kind = "scalar"

    def __init__(self, adjacency: Dict, k: int, method: str = "edge-disjoint"):
        self._adjacency = adjacency
        self._k = k
        self._method = method

    def prepare(self, pairs: Iterable[Pair]) -> None:
        """Eagerly compute every pair (memoisation is the wrapper's job)."""
        for source, dest in pairs:
            self.paths(source, dest)

    def paths(self, source: int, dest: int) -> List[Path]:
        """The pair's path set (fewer than k when the graph runs out)."""
        if self._method == "edge-disjoint":
            return k_edge_disjoint_paths(self._adjacency, source, dest, self._k)
        return k_shortest_paths(self._adjacency, source, dest, self._k)

    def paths_many(self, pairs: Sequence[Pair]) -> List[List[Path]]:
        """Path sets for every pair, in pair order."""
        return [self.paths(source, dest) for source, dest in pairs]


class CsrDisjointProvider:
    """k edge-disjoint shortest paths via bidirectional search over CSR.

    Output is byte-identical to :class:`ScalarDisjointProvider` with
    ``method="edge-disjoint"`` — including the degenerate cases the scalar
    loop produces (``src == dst`` yields ``k`` copies of the single-node
    path; unknown endpoints yield an empty set).

    **Why a distance-only search returns the scalar BFS's path.**  The
    scalar FIFO BFS visits neighbours in ascending order, so by induction
    over levels it dequeues each level in lexicographic order of the
    nodes' smallest shortest path from the source, and a node's parent is
    its first-dequeued neighbour: the parent chain of the target is the
    lexicographically smallest shortest path by node index.  That path
    needs no parent array.  Among equal-length sequences the smallest is
    found greedily — from the source, step to the smallest-index neighbour
    that still lies on *some* shortest path — and "lies on a shortest
    path" is a statement about distances only.  So :meth:`_lexmin_path`
    grows level sets from both endpoints until they meet (a few small
    frontiers instead of a sweep of the component), carries the
    target-side distances back from the meeting set to the source-side
    nodes that reach it along shortest paths, and walks from the source
    down those distances.  The search reads the same CSR entries from
    both ends, so it needs a symmetric graph (:attr:`CsrGraph.symmetric`)
    and an edge mask that always covers both directions of an edge.

    The distance and edge-mask scratch arrays live on the provider and
    every call restores the entries it touched, so a search costs its
    frontiers, not the graph.  Not re-entrant: one call at a time per
    provider instance.
    """

    kind = "csr"

    def __init__(self, graph: CsrGraph, k: int):
        self._graph = graph
        self._k = k
        num_nodes = graph.num_nodes
        #: Hop distance from the source / from the target (-1 = unseen).
        self._dist_s = np.full(num_nodes, -1, dtype=np.int32)
        self._dist_t = np.full(num_nodes, -1, dtype=np.int32)
        #: False on CSR entries of edges the pair's earlier paths used.
        self._alive = np.ones(graph.indices.shape[0], dtype=bool)
        # Dedup scratch; never reset — every entry read in a level was
        # scatter-written in that same level.
        self._stamp = np.empty(num_nodes, dtype=np.int32)

    def prepare(self, pairs: Iterable[Pair]) -> None:
        """Eagerly compute every pair (memoisation is the wrapper's job)."""
        for source, dest in pairs:
            self.paths(source, dest)

    def paths(self, source: int, dest: int) -> List[Path]:
        """The pair's path set (fewer than k when the graph runs out)."""
        if source == dest:
            # Parity: the scalar loop re-finds the single-node path k times.
            return [(source,)] * self._k
        graph = self._graph
        src = graph.index.get(source)
        dst = graph.index.get(dest)
        if src is None or dst is None:
            return []
        twin, alive = graph.twin, self._alive
        nodes = graph.nodes
        # Every simple path uses up one edge at each endpoint, so the
        # search after the min(deg)-th path is known to fail.
        budget = min(self._k, int(graph.degree[src]), int(graph.degree[dst]))
        paths: List[Path] = []
        masked: List[int] = []
        try:
            while len(paths) < budget:
                found = self._lexmin_path(src, dst)
                if found is None:
                    break
                chain, hops = found
                paths.append(tuple(nodes[i] for i in chain))
                for pos in hops:  # a few scalar writes beat two gathers
                    alive[pos] = False
                    alive[twin[pos]] = False
                masked.extend(hops)
        finally:
            if masked:
                alive[masked] = True
                alive[twin[masked]] = True
        return paths

    def paths_many(self, pairs: Sequence[Pair]) -> List[List[Path]]:
        """Path sets for every pair, in pair order."""
        return [self.paths(source, dest) for source, dest in pairs]

    # -- the kernel -----------------------------------------------------
    def _live_neighbours(self, nodes: np.ndarray) -> np.ndarray:
        """Neighbours of ``nodes`` (not empty) over unmasked entries, with
        repeats.  One node's row is sliced (a view), several are gathered."""
        graph = self._graph
        indptr = graph.indptr
        entries: Union[slice, np.ndarray]
        if nodes.shape[0] == 1:
            node = int(nodes[0])
            entries = slice(int(indptr[node]), int(indptr[node + 1]))
        else:
            starts = indptr[nodes]
            deg = graph.degree[nodes]
            csum = deg.cumsum()
            entries = graph.arange[: int(csum[-1])] + (starts - (csum - deg)).repeat(deg)
        return graph.indices[entries][self._alive[entries]]

    def _grow(self, frontier: np.ndarray, dist: np.ndarray, level: int) -> np.ndarray:
        """Label ``frontier``'s unseen live neighbours with ``level`` and
        return them, each once."""
        cand = self._live_neighbours(frontier)
        new = cand[dist[cand] < 0]
        count = new.shape[0]
        if count > 1 and frontier.shape[0] > 1:
            # Several rows can offer the same node; order is irrelevant
            # (distances only), so whichever offer lands last keeps it.
            order = self._graph.arange[:count]
            stamp = self._stamp
            stamp[new] = order
            new = new[stamp[new] == order]
        dist[new] = level
        return new

    def _lexmin_path(
        self, source: int, target: int
    ) -> Optional[Tuple[List[int], List[int]]]:
        """The lexicographically smallest shortest live path, or ``None``.

        Returns ``(node indices, CSR position of each hop)``.  See the
        class docstring for why this is the scalar BFS's parent chain.
        """
        graph = self._graph
        indptr, indices, degree = graph.indptr, graph.indices, graph.degree
        alive, dist_s, dist_t = self._alive, self._dist_s, self._dist_t
        s_levels = [np.array([source], dtype=np.int32)]
        t_levels = [np.array([target], dtype=np.int32)]
        dist_s[source] = 0
        dist_t[target] = 0
        try:
            # Grow the cheaper side (smaller frontier degree sum) one full
            # level at a time.  Before each step the two balls are
            # disjoint, so a new level can only touch the other ball on
            # its outermost level, and `meet` is then *every* node at
            # that depth of any shortest path.
            s_cost, t_cost = int(degree[source]), int(degree[target])
            while True:
                from_source = s_cost <= t_cost
                if from_source:
                    levels, dist, other = s_levels, dist_s, dist_t
                else:
                    levels, dist, other = t_levels, dist_t, dist_s
                new = self._grow(levels[-1], dist, len(levels))
                levels.append(new)
                if new.shape[0] == 0:
                    return None  # that endpoint's component is exhausted
                meet = new[other[new] >= 0]
                if meet.shape[0]:
                    break
                if from_source:
                    s_cost = int(degree[new].sum())
                else:
                    t_cost = int(degree[new].sum())
            # Carry the target distances back through the source ball,
            # along shortest paths only: a node one level nearer the
            # source with a live edge to a labelled node is one hop
            # further from the target.  Source-side nodes off every
            # shortest path stay unlabelled.
            depth_s = int(dist_s[meet[0]])
            length = depth_s + int(dist_t[meet[0]])
            ring = meet
            for level in range(depth_s - 1, 0, -1):
                cand = self._live_neighbours(ring)
                dist_t[cand[dist_s[cand] == level]] = length - level
                ring = s_levels[level]
                ring = ring[dist_t[ring] >= 0]
                t_levels.append(ring)
            # Walk down the target distances, smallest index first (rows
            # are sorted, so argmax finds it).
            chain = [source]
            hops: List[int] = []
            node = source
            for remaining in range(length - 1, -1, -1):
                lo, hi = int(indptr[node]), int(indptr[node + 1])
                row = indices[lo:hi]
                step = int((alive[lo:hi] & (dist_t[row] == remaining)).argmax())
                hops.append(lo + step)
                node = int(row[step])
                chain.append(node)
            return chain, hops
        finally:
            for level_nodes in s_levels:
                dist_s[level_nodes] = -1
            for level_nodes in t_levels:
                dist_t[level_nodes] = -1


class _ArrayTree:
    """BFS parent tree over CSR indices (vectorised discovery mode)."""

    __slots__ = ("_graph", "_parent", "_root")

    def __init__(self, graph: CsrGraph, parent: np.ndarray, root: int):
        self._graph = graph
        self._parent = parent
        self._root = root

    def path_from_root(self, node: int) -> Optional[Path]:
        """Root → node path with root-side BFS tie-breaks, or ``None``."""
        idx = self._graph.index.get(node)
        if idx is None or self._parent[idx] == -1:
            return None
        chain = _parent_chain(self._parent, self._root, idx)
        nodes = self._graph.nodes
        return tuple(nodes[i] for i in chain)


class _DictTree:
    """BFS parent tree as a plain dict (scalar parity mode)."""

    __slots__ = ("_parent", "_root")

    def __init__(self, parent: Dict, root: int):
        self._parent = parent
        self._root = root

    def path_from_root(self, node: int) -> Optional[Path]:
        """Root → node path with root-side BFS tie-breaks, or ``None``."""
        if node not in self._parent:
            return None
        chain = [node]
        while chain[-1] != self._root:
            chain.append(self._parent[chain[-1]])
        return tuple(reversed(chain))


#: Both BFS parent-tree backings share the ``path_from_root`` surface.
BfsTree = Union["_ArrayTree", "_DictTree"]


def _dict_bfs_tree(adjacency: Dict, root: int) -> Dict:
    """Full FIFO BFS parent map (adjacency rows must be pre-sorted)."""
    parent = {root: root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbour in adjacency.get(node, ()):
            if neighbour not in parent:
                parent[neighbour] = node
                queue.append(neighbour)
    return parent


class LandmarkProvider:
    """SilentWhispers pair paths assembled from shared BFS trees.

    The legacy scheme ran two fresh BFS searches per (pair, landmark).
    Both legs come out of full BFS trees instead — one tree per landmark
    (the ``landmark → dest`` leg for every destination) and one per
    distinct source (the ``source → landmark`` leg for every landmark) —
    with tie-breaks identical to the per-pair searches, because a BFS
    parent chain is the same whether or not the search stopped early.
    Landmark trees and assembled pair sets are memoised for the
    provider's lifetime; source trees are O(nodes) each, so they live in
    a bounded FIFO (an evicted source only pays a tree rebuild when it
    later sends to a *new* destination — known pairs stay memoised).
    """

    kind = "landmark"
    #: Source-rooted trees kept at once (landmark trees are unbounded —
    #: there are only ``num_landmarks`` of them and every pair reuses
    #: them).  64 trees × O(4·nodes) bytes stays a few MB at 10k nodes.
    source_tree_limit = 64

    def __init__(self, service: "PathService", landmarks: Sequence):
        self._service = service
        self.landmarks = list(landmarks)
        self._trees: Dict[int, BfsTree] = {}
        self._source_trees: Dict[int, BfsTree] = {}
        self._pairs: Dict[Pair, List[Path]] = {}

    def _tree(self, root: int) -> BfsTree:
        tree = self._trees.get(root)
        if tree is None:
            tree = self._service.bfs_tree(root)
            self._trees[root] = tree
        return tree

    def _source_tree(self, source: int) -> BfsTree:
        if source in self._trees:  # a landmark sending: reuse its tree
            return self._trees[source]
        tree = self._source_trees.get(source)
        if tree is None:
            tree = self._service.bfs_tree(source)
            if len(self._source_trees) >= self.source_tree_limit:
                self._source_trees.pop(next(iter(self._source_trees)))
            self._source_trees[source] = tree
        return tree

    def prepare(self, pairs: Iterable[Pair]) -> None:
        """Assemble (and memoise) every pair's landmark path set."""
        for source, dest in pairs:
            self.paths(source, dest)

    def paths(self, source: int, dest: int) -> List[Path]:
        """One loop-free path per landmark (deduplicated), memoised."""
        key = (source, dest)
        cached = self._pairs.get(key)
        if cached is not None:
            return cached
        paths: List[Path] = []
        seen = set()
        source_tree = self._source_tree(source)
        for landmark in self.landmarks:
            first = source_tree.path_from_root(landmark)
            second = self._tree(landmark).path_from_root(dest)
            if first is None or second is None:
                continue
            merged = contract_loops(first + second[1:])
            if len(merged) < 2 or merged[0] != source or merged[-1] != dest:
                continue
            if merged not in seen:
                seen.add(merged)
                paths.append(merged)
        self._pairs[key] = paths
        return paths

    def paths_many(self, pairs: Sequence[Pair]) -> List[List[Path]]:
        """Path sets for every pair, in pair order."""
        return [self.paths(source, dest) for source, dest in pairs]


#: The three provider implementations share the ``paths`` / ``paths_many``
#: / ``prepare`` discovery surface the cache wraps.
PathProvider = Union[ScalarDisjointProvider, CsrDisjointProvider, LandmarkProvider]


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
class PersistentCache:
    """Provider wrapper: in-process memoisation + on-disk path artifacts.

    Pair sets live in a process-wide store keyed by the
    topology/k/method/provider hash, so two networks with identical
    adjacency (repeat runs, multi-scheme comparisons, sweep cells in one
    process) share one computation.  :meth:`persist_to` attaches a cache
    directory: known artifacts are loaded eagerly and :meth:`flush`
    (called by :meth:`prepare` and at session end) writes the merged pair
    sets back atomically — the same share-by-content discipline as the
    sweep JSON cache, so ``SweepExecutor`` workers load discovery from
    disk instead of recomputing it per cell.
    """

    _ARTIFACT_SCHEMA = 1
    #: Process-wide pair stores, keyed by the full cache key.
    _shared: Dict[str, Dict[Pair, List[Path]]] = {}

    def __init__(self, provider: PathProvider, key: str, cache_dir: Optional[str] = None):
        self.provider = provider
        self.key = key
        self._pairs = self._shared.setdefault(key, {})
        self._dir: Optional[str] = None
        self._dirty = False
        if cache_dir is not None:
            self.persist_to(cache_dir)

    @classmethod
    def clear_shared(cls) -> None:
        """Drop the process-wide stores (tests and cold benchmarks)."""
        cls._shared.clear()

    # -- discovery ------------------------------------------------------
    def paths(self, source: int, dest: int) -> List[Path]:
        """The pair's path set, computed at most once per process."""
        key = (source, dest)
        if key not in self._pairs:
            self._pairs[key] = self.provider.paths(source, dest)
            self._dirty = True
        return self._pairs[key]

    def paths_many(self, pairs: Sequence[Pair]) -> List[List[Path]]:
        """Path sets for every pair, in pair order."""
        return [self.paths(source, dest) for source, dest in pairs]

    def prepare(self, pairs: Iterable[Pair]) -> None:
        """Batch-compute every missing pair, then flush the artifact."""
        missing = [
            (source, dest)
            for source, dest in pairs
            if (source, dest) not in self._pairs
        ]
        if missing:
            for pair, paths in zip(missing, self.provider.paths_many(missing)):
                self._pairs[pair] = paths
            self._dirty = True
        self.flush()

    # -- disk artifacts -------------------------------------------------
    def persist_to(self, cache_dir: str) -> None:
        """Attach ``cache_dir`` and load this key's artifact if present."""
        self._dir = cache_dir
        loaded = self._read_artifact()
        if loaded:
            for pair, paths in loaded.items():
                self._pairs.setdefault(pair, paths)
        if any(pair not in loaded for pair in self._pairs):
            # The process-wide store already holds pairs the artifact
            # lacks (discovered before this directory was attached, by
            # this or an earlier service instance) — mark dirty so the
            # next flush writes them out rather than silently skipping.
            self._dirty = True

    def _artifact_path(self) -> Optional[str]:
        if self._dir is None:
            return None
        return os.path.join(self._dir, f"paths-{self.key}.json")

    def _read_artifact(self) -> Dict[Pair, List[Path]]:
        """This key's artifact as pair sets, ``{}`` if there is none.

        A file that cannot be read, is not the JSON :meth:`flush` writes
        (``[source, dest, [path, ...]]`` entries, every path a list),
        or carries another schema or key (renamed, copied, stale) is
        treated as absent: its pairs are recomputed and the next
        :meth:`flush` overwrites it.
        """
        path = self._artifact_path()
        if path is None or not os.path.exists(path):
            return {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if (
                payload["schema"] != self._ARTIFACT_SCHEMA
                or payload["key"] != self.key
            ):
                return {}
            loaded: Dict[Pair, List[Path]] = {}
            for source, dest, paths in payload["pairs"]:
                if type(paths) is not list or set(map(type, paths)) - {list}:
                    return {}
                loaded[(source, dest)] = [tuple(p) for p in paths]
            return loaded
        except (OSError, ValueError, KeyError, TypeError):
            return {}

    def flush(self) -> None:
        """Write the merged pair sets to the artifact (atomic replace).

        A no-op without a cache directory or new pairs; silently skips
        node ids JSON cannot represent (artifacts are for the integer
        topologies the experiments use).
        """
        path = self._artifact_path()
        if path is None or not self._dirty:
            return
        merged = self._read_artifact()
        merged.update(self._pairs)
        payload = {
            "schema": self._ARTIFACT_SCHEMA,
            "key": self.key,
            "pairs": [
                [source, dest, [list(p) for p in paths]]
                for (source, dest), paths in sorted(
                    merged.items(), key=repr
                )
            ],
        }
        try:
            blob = json.dumps(payload, sort_keys=True)
        except TypeError:
            return
        # Shard lanes never attach a cache dir (ShardedSession._build_lane
        # passes no path_cache_dir), so this flush only ever runs in the
        # unsharded/parent process; the pid-suffixed tmp + os.replace keeps
        # even an accidental concurrent flush atomic.
        # repro-lint: allow[RL006] fork lanes attach no cache dir; unreachable
        os.makedirs(self._dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        # repro-lint: allow[RL006] unreachable in forked lanes (no cache dir)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
        # repro-lint: allow[RL006] atomic publish; unreachable in forked lanes
        os.replace(tmp, path)
        self._dirty = False


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class PairPathView:
    """A :class:`~repro.routing.base.PathCache`-compatible (k, method) view.

    What ``RoutingScheme.prepare`` hands to schemes as ``self.path_cache``:
    the same ``paths`` / ``shortest`` / ``k`` surface, served by the
    session's shared service instead of a private per-scheme cache.
    """

    __slots__ = ("_cache", "_k")

    def __init__(self, cache: PersistentCache, k: int):
        self._cache = cache
        self._k = k

    @property
    def k(self) -> int:
        """Paths requested per pair."""
        return self._k

    def paths(self, source: int, dest: int) -> List[Path]:
        """The pair's path set (possibly fewer than k; empty if
        disconnected)."""
        return self._cache.paths(source, dest)

    def shortest(self, source: int, dest: int) -> Optional[Path]:
        """The pair's shortest path, or ``None`` if disconnected."""
        paths = self._cache.paths(source, dest)
        return paths[0] if paths else None

    def paths_many(self, pairs: Sequence[Pair]) -> List[List[Path]]:
        """Path sets for every pair, in pair order."""
        return self._cache.paths_many(pairs)

    def prepare(self, pairs: Iterable[Pair]) -> None:
        """Batch-discover ``pairs`` and flush the disk artifact (if any)."""
        self._cache.prepare(pairs)


class PathService:
    """One network's path-discovery facade — the only discovery entry point.

    Owns the sorted adjacency (built once, shared by every consumer that
    previously re-derived it), compiles the CSR graph lazily, and serves
    (k, method) :class:`PairPathView` views whose pair sets are memoised
    process-wide and optionally persisted via :class:`PersistentCache`.

    ``vectorized_discovery`` is the class-wide mode switch: ``True``
    (default) discovers through the CSR kernels, ``False`` keeps every
    provider on the scalar per-pair loops — the parity baseline,
    mirroring ``PaymentNetwork.vectorized_path_ops`` and
    ``ControlPlane.vectorized_signals``.  A graph the CSR kernels cannot
    serve (node ids without a total order, or an edge without its
    reverse) stays on the scalar loops whatever the switch says.
    """

    #: Class-wide default, captured per instance at construction.
    vectorized_discovery: bool = True

    def __init__(self, adjacency: Dict, cache_dir: Optional[str] = None):
        self._adjacency: Dict[object, List] = {
            node: _sorted_ids(neighbours)[0]
            for node, neighbours in adjacency.items()
        }
        self.use_vectorized = type(self).vectorized_discovery
        self._cache_dir = cache_dir
        self._graph: Optional[CsrGraph] = None
        self._fingerprint: Optional[str] = None
        self._views: Dict[Tuple[int, str], PersistentCache] = {}
        self._landmark_providers: Dict[int, LandmarkProvider] = {}

    @classmethod
    def from_network(cls, network: "PaymentNetwork", cache_dir: Optional[str] = None) -> "PathService":
        """Build the service over a
        :class:`~repro.network.network.PaymentNetwork`'s channel graph."""
        return cls(
            {node: list(network.neighbors(node)) for node in network.nodes()},
            cache_dir=cache_dir,
        )

    @classmethod
    def from_adjacency(cls, adjacency: Dict, cache_dir: Optional[str] = None) -> "PathService":
        """Build the service over a plain adjacency mapping."""
        return cls(adjacency, cache_dir=cache_dir)

    # -- shared graph structure ----------------------------------------
    def sorted_adjacency(self) -> Dict[object, List]:
        """``{node: sorted neighbour list}`` — built once per network.

        The explicit neighbour ordering every BFS tie-break derives from;
        consumers (LND's gossip view, the embedding trees) must not
        mutate it.
        """
        return self._adjacency

    @property
    def graph(self) -> CsrGraph:
        """The compiled CSR adjacency (built lazily, cached)."""
        if self._graph is None:
            self._graph = CsrGraph.from_adjacency(self._adjacency)
        return self._graph

    @property
    def topology_fingerprint(self) -> str:
        """Stable content hash of the channel graph (artifact keying)."""
        if self._fingerprint is None:
            self._fingerprint = self.graph.fingerprint()
        return self._fingerprint

    def _vectorized_ok(self) -> bool:
        if not self.use_vectorized:
            return False
        graph = self.graph
        return graph.consistent and graph.symmetric

    # -- providers ------------------------------------------------------
    def provider(self, k: int, method: str = "edge-disjoint") -> PersistentCache:
        """The (k, method) discovery provider, wrapped for caching.

        ``edge-disjoint`` runs on the CSR provider in vectorised mode;
        ``yen`` (and the scalar parity mode) uses the legacy loops.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if method not in ("edge-disjoint", "yen"):
            raise ValueError(f"unknown path method {method!r}")
        view_key = (k, method)
        cache = self._views.get(view_key)
        if cache is None:
            if method == "edge-disjoint" and self._vectorized_ok():
                inner = CsrDisjointProvider(self.graph, k)
            else:
                inner = ScalarDisjointProvider(self._adjacency, k, method)
            cache_key = (
                f"{self.topology_fingerprint}-k{k}-{method}-{inner.kind}"
            )
            cache = PersistentCache(inner, cache_key, self._cache_dir)
            self._views[view_key] = cache
        return cache

    def view(self, k: int, method: str = "edge-disjoint") -> PairPathView:
        """A PathCache-compatible view of the (k, method) provider."""
        return PairPathView(self.provider(k, method), k)

    def landmark_provider(self, num_landmarks: int) -> LandmarkProvider:
        """The tree-backed landmark provider (landmarks = top degree).

        Landmark selection matches the SilentWhispers scheme: the
        ``num_landmarks`` highest-degree nodes, ties broken by node id.
        """
        if num_landmarks <= 0:
            raise ValueError(
                f"num_landmarks must be positive, got {num_landmarks}"
            )
        provider = self._landmark_providers.get(num_landmarks)
        if provider is None:
            adjacency = self._adjacency
            by_degree = sorted(
                adjacency, key=lambda n: (-len(adjacency[n]), n)
            )
            provider = LandmarkProvider(self, by_degree[:num_landmarks])
            self._landmark_providers[num_landmarks] = provider
        return provider

    def bfs_tree(self, root: int) -> BfsTree:
        """A full BFS parent tree rooted at ``root`` (mode-matched).

        Array-backed in vectorised mode, dict-backed in scalar parity
        mode; parent chains are identical either way (pinned).
        """
        if root not in self._adjacency:
            return _DictTree({root: root}, root)
        if self._vectorized_ok():
            graph = self.graph
            parent = _csr_level_bfs(graph, graph.index[root])
            return _ArrayTree(graph, parent, graph.index[root])
        return _DictTree(_dict_bfs_tree(self._adjacency, root), root)

    # -- convenience discovery -----------------------------------------
    def paths(self, source: int, dest: int, k: int = 4, method: str = "edge-disjoint") -> List[Path]:
        """One pair's path set through the (k, method) provider."""
        return self.provider(k, method).paths(source, dest)

    def paths_many(
        self, pairs: Sequence[Pair], k: int = 4, method: str = "edge-disjoint"
    ) -> List[List[Path]]:
        """Path sets for every pair, in pair order."""
        return self.provider(k, method).paths_many(pairs)

    def prepare(
        self, pairs: Iterable[Pair], k: int = 4, method: str = "edge-disjoint"
    ) -> None:
        """Batch-discover ``pairs`` and flush the artifact (if persisted)."""
        self.provider(k, method).prepare(pairs)

    # -- persistence ----------------------------------------------------
    def persist_to(self, cache_dir: str) -> None:
        """Attach a cache directory to current and future providers."""
        self._cache_dir = cache_dir
        for cache in self._views.values():
            # repro-lint: allow[RL006] sharded lanes never call persist_to
            cache.persist_to(cache_dir)

    def flush(self) -> None:
        """Write every provider's dirty pair sets to its artifact."""
        for cache in self._views.values():
            # repro-lint: allow[RL006] no-op in lanes: no cache dir attached
            cache.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathService(nodes={len(self._adjacency)}, "
            f"views={len(self._views)}, "
            f"vectorized={self.use_vectorized})"
        )
