"""First-class path discovery: the PathService facade and its providers.

The paper fixes every pair's path set before the run starts ("4 edge-disjoint
shortest paths", §6.1), so path discovery is a precomputable, shareable
artifact — yet the seed smeared it across three incompatible APIs (a
per-scheme path cache, :func:`repro.fluid.paths.build_path_set` and ad-hoc
BFS inside the landmark/LND/embedding schemes), each scheme rebuilding its
own cache per run.  At 10k-node scale the per-pair
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
  array is needed).  One kernel (:class:`_Lockstep`) serves a whole chunk
  of pairs per NumPy call — every operation is keyed by ``(pair, node)``,
  each pair has its own labels and edge mask — so cold discovery costs
  element work, not call overhead; ``paths`` is a batch of one.  Paths are
  **byte-identical** to the scalar per-pair BFS (pinned by
  ``tests/engine/test_pathservice.py``).
* :class:`ScalarDisjointProvider` — the per-pair
  :func:`~repro.fluid.paths.k_edge_disjoint_paths` /
  :func:`~repro.fluid.paths.k_shortest_paths` loops: ``method="yen"``, and
  the graphs the CSR kernel cannot express (one-way edges, node ids
  without a total order).  The tests use it as the discovery oracle.
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
    """The per-pair BFS loops over the adjacency dict.

    Serves what :class:`CsrDisjointProvider` cannot: ``method="yen"``
    (k shortest, not edge-disjoint), graphs with a one-way edge (the
    bidirectional search reads each edge from both ends) and node ids
    without a total order (no sorted CSR layout).  It is also the oracle
    the CSR kernel is pinned against, path for path.
    """

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


#: Scratch one ``paths_many`` call may allocate for the pairs it searches
#: side by side.  Throughput is flat from ~50 pairs per chunk up
#: (ripple-huge: 0.27 ms/pair at 16, 0.16 at 57, 0.15 at 128 and 256),
#: so the budget buys nothing beyond the point where a 10k-node graph
#: gets that many, and peak RSS pays for every byte of it.
_SCRATCH_BUDGET_BYTES = 8 << 20


def _label_dtype(num_nodes: int) -> np.dtype:
    """Narrowest signed dtype that holds every BFS level (< ``num_nodes``)."""
    return np.dtype(np.int16 if num_nodes <= np.iinfo(np.int16).max else np.int32)


def _pair_scratch_bytes(num_nodes: int, num_entries: int) -> int:
    """Scratch one pair of a chunk needs: a source-side and a target-side
    label per node, an edge-mask byte per CSR entry, an int32 dedup stamp
    per node."""
    return (
        2 * num_nodes * _label_dtype(num_nodes).itemsize
        + num_entries
        + 4 * num_nodes
    )


def _chunk_pairs(num_nodes: int, num_entries: int) -> int:
    """Pairs searched side by side under the scratch budget (at least one,
    however large the graph)."""
    return max(
        1, _SCRATCH_BUDGET_BYTES // _pair_scratch_bytes(num_nodes, num_entries)
    )


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
    path" is a statement about distances only.  So the search grows level
    sets from both endpoints until they meet (a few small frontiers
    instead of a sweep of the component), carries the target-side
    distances back from the meeting set to the source-side nodes that
    reach it along shortest paths, and walks from the source down those
    distances.  It reads the same CSR entries from both ends, so it needs
    a symmetric graph (:attr:`CsrGraph.symmetric`) and an edge mask that
    always covers both directions of an edge.

    **One kernel, many pairs at a time.**  A search touches a few hundred
    CSR entries per step, so run pair by pair it is NumPy call overhead,
    not element work.  :meth:`paths_many` therefore hands its pairs to
    :class:`_Lockstep` in chunks that advance together: every array
    operation is keyed by ``(pair, node)`` and serves the whole chunk.
    Because a path is a function of distances in the pair's own residual
    graph, and each pair has its own labels and its own edge mask, the
    order in which the chunk's searches are interleaved cannot change
    any path.  :meth:`paths` is a batch of one.

    The provider keeps no arrays: scratch is sized to the batch, lives
    for one :meth:`paths_many` call, and is gone before the run starts.
    """

    kind = "csr"

    def __init__(self, graph: CsrGraph, k: int):
        self._graph = graph
        self._k = k

    def prepare(self, pairs: Iterable[Pair]) -> None:
        """Eagerly compute every pair (memoisation is the wrapper's job)."""
        self.paths_many(list(pairs))

    def paths(self, source: int, dest: int) -> List[Path]:
        """The pair's path set (fewer than k when the graph runs out)."""
        return self.paths_many([(source, dest)])[0]

    def paths_many(self, pairs: Sequence[Pair]) -> List[List[Path]]:
        """Path sets for every pair, in pair order."""
        graph = self._graph
        index = graph.index
        out: List[List[Path]] = []
        slots: List[int] = []
        ends: List[Tuple[int, int]] = []
        for source, dest in pairs:
            if source == dest:
                # Parity: the scalar loop re-finds the single-node path k times.
                out.append([(source,)] * self._k)
                continue
            src, dst = index.get(source), index.get(dest)
            if src is not None and dst is not None:
                slots.append(len(out))
                ends.append((src, dst))
            out.append([])
        if not slots:
            return out
        src, dst = np.array(ends, dtype=np.intp).T
        # Every simple path uses up one edge at each endpoint, so the
        # search after the min(deg)-th path is known to fail.
        degree = graph.degree
        budget = np.minimum(self._k, np.minimum(degree[src], degree[dst]))
        width = min(
            len(slots), _chunk_pairs(graph.num_nodes, graph.indices.shape[0])
        )
        kernel = _Lockstep(graph, width)
        for lo in range(0, len(slots), width):
            hi = lo + width
            found = kernel.run(src[lo:hi], dst[lo:hi], budget[lo:hi])
            for slot, paths in zip(slots[lo:hi], found):
                out[slot] = paths
        return out


class _Lockstep:
    """The discovery kernel: up to ``width`` pairs searched side by side.

    Owns the scratch of one ``paths_many`` call.  Everything is addressed
    by local pair number: hop labels at ``2 * (pair * n + node) + side``
    (side 0 = hops from the source, 1 = from the target, -1 = unseen, so
    ``key ^ 1`` is the same node seen from the other end and ``key >> 1``
    its ``(pair, node)`` slot), the edge mask at ``pair * E + pos``.  One
    gather, filter or scatter then serves every pair of the chunk, and
    index arrays are ``intp`` throughout — NumPy converts any other index
    dtype on every call.

    :meth:`run` finds path 1 of every pair, then path 2 of every pair
    that can still have one, and so on; a round is four phases, each a
    loop whose steps advance all pairs still in that phase:

    1. *growth* — each pair grows the cheaper of its two balls (smaller
       frontier degree sum) by one level, until a new level touches the
       other ball or finds nothing.  A pair grows **one side per step**,
       so within a step a ``(pair, node)`` slot identifies a label
       uniquely and one stamp per slot is enough to keep a single copy
       of a node several rows offer.
    2. *carry-back* — from the meeting set down to level 1, the
       source-side nodes on shortest paths get their target distance.
    3. *walk* — from the source, the first live row entry whose
       neighbour is one hop nearer the target; rows are sorted, so that
       is the smallest index.
    4. the hops and their twins are masked for that pair, and only the
       labels the round wrote are reset.

    Pairs leave a phase at different steps (their searches differ in
    depth) and rejoin at the next; nothing a pair reads was written by
    another pair.
    """

    def __init__(self, graph: CsrGraph, width: int):
        num_nodes, num_entries = graph.num_nodes, graph.indices.shape[0]
        self.graph = graph
        self.dist = np.full(2 * width * num_nodes, -1, dtype=_label_dtype(num_nodes))
        self.alive = np.ones(width * num_entries, dtype=bool)
        #: Never reset: every stamp read was written in the same step.
        self.stamp = np.empty(width * num_nodes, dtype=np.int32)
        #: Per pair, the source-side key of node 0 and the mask of entry 0.
        self.pair_span = 2 * num_nodes
        self.pair_key = np.arange(width) * self.pair_span
        self.pair_pos = np.arange(width) * num_entries
        self.row_end = graph.indptr[1:]
        #: Whether any entry is masked, i.e. a round after the first.
        self.any_dead = False

    def run(
        self, src: np.ndarray, dst: np.ndarray, budget: np.ndarray
    ) -> List[List[Path]]:
        """Up to ``budget`` paths for each ``(src, dst)`` index pair."""
        nodes, twin = self.graph.nodes, self.graph.twin
        found: List[List[Path]] = [[] for _ in range(src.shape[0])]
        masked: List[np.ndarray] = []
        active = np.arange(src.shape[0])
        for done in range(int(budget.max())):
            active = active[budget[active] > done]
            if active.shape[0] == 0:
                break
            self.any_dead = done > 0
            touched: List[np.ndarray] = []
            active, depth, rings = self._grow(active, src, dst, touched)
            if active.shape[0]:
                length = depth[0] + depth[1]
                self._carry_back(rings, depth[0] - 1, length, touched)
                # Longest first, so the pairs still walking are a prefix.
                active = active[np.argsort(-length[active], kind="stable")]
                lengths = length[active]
                chain, hops = self._walk(active, src[active], lengths)
                used = hops.T[np.arange(hops.shape[0]) < lengths[:, None]]
                offset = self.pair_pos[active].repeat(lengths)
                dead = np.concatenate([used + offset, twin.take(used) + offset])
                self.alive[dead] = False
                masked.append(dead)
                for pair, row, hop_count in zip(
                    active.tolist(), chain.T.tolist(), lengths.tolist()
                ):
                    found[pair].append(
                        tuple([nodes[i] for i in row[: hop_count + 1]])
                    )
            self.dist[np.concatenate(touched)] = -1
        if masked:
            self.alive[np.concatenate(masked)] = True
        return found

    # -- shared steps ---------------------------------------------------
    def _rows(
        self, nodes: np.ndarray, base: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The CSR rows of ``nodes`` (none empty) laid end to end.

        Returns ``(deg, ends, pos, key)``: each row's length (what
        ``repeat`` needs to spread a per-row value over it) and end, and
        per entry its CSR position and its neighbour's label key, given
        each row's pair-and-side ``base`` key.
        """
        graph = self.graph
        deg = graph.degree.take(nodes)
        ends = deg.cumsum()
        pos = (self.row_end.take(nodes) - ends).repeat(deg)
        pos += np.arange(pos.shape[0])
        key = base.repeat(deg)
        key += graph.indices.take(pos) << 1
        return deg, ends, pos, key

    def _drop_dead(
        self, ok: np.ndarray, pos: np.ndarray, pair: np.ndarray, deg: np.ndarray
    ) -> None:
        """Clear ``ok`` on the entries masked for their row's pair."""
        if self.any_dead:
            ok &= self.alive.take(pos + self.pair_pos.take(pair).repeat(deg))

    def _one_each(
        self, ok: np.ndarray, key: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Keys of the entries flagged ``ok``, one per slot, and their pairs.

        Several rows of a pair can offer the same node; which offer is
        kept is irrelevant (labels only).
        """
        key = key.take(ok.nonzero()[0])
        slot = key >> 1
        order = np.arange(slot.shape[0], dtype=np.int32)
        self.stamp[slot] = order
        key = key.take((self.stamp.take(slot) == order).nonzero()[0])
        return key, key // self.pair_span

    # -- the phases -----------------------------------------------------
    def _grow(
        self,
        active: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        touched: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        """Grow both balls of every ``active`` pair until they meet.

        Returns the pairs that met, the ``(2, pairs)`` levels grown per
        side, and the meeting sets as ``(slot, pair)`` arrays.  Before
        each step a pair's two balls are disjoint, so a new level can only
        touch the other ball on its outermost level: the path length is
        the sum of the two depths and the meeting set is *every* node at
        that depth of any shortest path.
        """
        degree, dist, pair_key = self.graph.degree, self.dist, self.pair_key
        count = src.shape[0]
        pair_ids = np.arange(count)
        zero = pair_key[active]
        f_key = np.concatenate([zero + 2 * src[active], zero + 2 * dst[active] + 1])
        dist[f_key] = 0
        touched.append(f_key)
        depth = np.zeros((2, count), dtype=dist.dtype)
        cost = np.array([degree[src], degree[dst]], dtype=np.float64)
        growing = np.zeros(count, dtype=bool)
        growing[active] = True
        met = np.zeros(count, dtype=bool)
        rings: List[Tuple[np.ndarray, np.ndarray]] = []
        while growing.any():
            side = (cost[1] < cost[0]).astype(np.intp)  # 1: the target side
            f_pair = f_key // self.pair_span
            live = growing[f_pair]
            turn = (f_key & 1) == side[f_pair]
            expand = live & turn
            e_key, e_pair = f_key[expand], f_pair[expand]
            f_key = f_key[live & ~turn]
            level = depth[side, pair_ids] + growing
            depth[side, pair_ids] = level
            base = pair_key.take(e_pair) + (e_key & 1)
            deg, _, pos, key = self._rows((e_key - base) >> 1, base)
            ok = dist.take(key) < 0
            self._drop_dead(ok, pos, e_pair, deg)
            u_key, u_pair = self._one_each(ok, key)
            dist[u_key] = level.take(u_pair)
            touched.append(u_key)
            hit = (dist.take(u_key ^ 1) >= 0).nonzero()[0]
            if hit.shape[0]:
                rings.append((u_key.take(hit) >> 1, u_pair.take(hit)))
                met[rings[-1][1]] = True
            # The grown side now costs its new frontier's degree sum; a
            # step that found nothing exhausted that side's component.
            u_node = (u_key - pair_key.take(u_pair)) >> 1
            new_cost = np.bincount(
                u_pair, weights=degree.take(u_node), minlength=count
            )
            cost[side, pair_ids] = new_cost
            growing = (new_cost > 0) & ~met
            f_key = np.concatenate([f_key, u_key])
        return met.nonzero()[0], depth, rings

    def _carry_back(
        self,
        rings: List[Tuple[np.ndarray, np.ndarray]],
        level: np.ndarray,
        length: np.ndarray,
        touched: List[np.ndarray],
    ) -> None:
        """Give the source-side nodes on shortest paths their target
        distance, from the meeting sets down to level 1.

        Each pair counts its own ``level`` down (from its source depth - 1
        at entry; consumed): a node one level nearer the source with a
        live edge to a labelled node is one hop further from the target.
        Source-side nodes off every shortest path stay unlabelled.
        """
        dist, pair_key = self.dist, self.pair_key
        r_slot = np.concatenate([slot for slot, _ in rings])
        r_pair = np.concatenate([pair for _, pair in rings])
        while True:
            on = (level.take(r_pair) >= 1).nonzero()[0]
            if on.shape[0] == 0:
                return
            r_slot, r_pair = r_slot.take(on), r_pair.take(on)
            base = pair_key.take(r_pair)
            deg, _, pos, key = self._rows(r_slot - (base >> 1), base)
            ok = dist.take(key) == level.take(r_pair).repeat(deg)
            self._drop_dead(ok, pos, r_pair, deg)
            u_key, r_pair = self._one_each(ok, key)
            r_slot = u_key >> 1
            u_key |= 1
            dist[u_key] = length.take(r_pair) - level.take(r_pair)
            touched.append(u_key)
            level -= 1

    def _walk(
        self, active: np.ndarray, start: np.ndarray, lengths: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The lexicographically smallest shortest live path of each pair.

        ``lengths`` descends, so the pairs still walking at a step are a
        prefix.  Returns ``(nodes, hops)``, step by pair: the node after
        each step and the CSR position of each hop (cells past a pair's
        length are unset).  A step takes the first live entry of the
        current row whose neighbour is one hop nearer the target.
        """
        indices = self.graph.indices
        num_entries = indices.shape[0]
        longest = int(lengths[0])
        walking = np.searchsorted(-lengths, -np.arange(longest)).tolist()
        chain = np.empty((longest + 1, active.shape[0]), dtype=np.intp)
        hops = np.empty((longest, active.shape[0]), dtype=np.intp)
        chain[0] = start
        base = self.pair_key[active] + 1
        left = lengths.copy()
        for step, w in enumerate(walking):
            deg, ends, pos, key = self._rows(chain[step, :w], base[:w])
            left -= 1
            ok = self.dist.take(key) == left[:w].repeat(deg)
            self._drop_dead(ok, pos, active[:w], deg)
            hop = np.minimum.reduceat(np.where(ok, pos, num_entries), ends - deg)
            hops[step, :w] = hop
            chain[step + 1, :w] = indices.take(hop)
        return chain, hops


class _ArrayTree:
    """BFS parent tree over CSR indices."""

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
    """BFS parent tree as a plain dict (graphs the CSR layout cannot hold)."""

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
        """Path sets for every pair, in pair order (repeats included);
        the misses go to the provider as one batch."""
        keys = [(source, dest) for source, dest in pairs]
        self._discover(keys)
        known = self._pairs
        return [known[key] for key in keys]

    def prepare(self, pairs: Iterable[Pair]) -> None:
        """Batch-compute every missing pair, then flush the artifact."""
        self._discover((source, dest) for source, dest in pairs)
        self.flush()

    def _discover(self, keys: Iterable[Pair]) -> None:
        """One provider ``paths_many`` over the distinct unknown ``keys``."""
        known = self._pairs
        missing = [key for key in dict.fromkeys(keys) if key not in known]
        if missing:
            known.update(zip(missing, self.provider.paths_many(missing)))
            self._dirty = True

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

        The decoder mints a fresh ``int`` for every node of every path;
        they are interned to one object per node id as the paths are
        built (on the 3774-node Ripple graph, ~390k entries over ~3.8k
        ids: 7 MB of peak RSS).
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
            node_ids: Dict[int, int] = {}
            intern = node_ids.setdefault
            for source, dest, paths in payload["pairs"]:
                if type(paths) is not list or set(map(type, paths)) - {list}:
                    return {}
                loaded[(source, dest)] = [
                    tuple(map(intern, p, p)) for p in paths
                ]
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
        # A pid-suffixed tmp plus os.replace keeps concurrent flushes (sweep
        # cells sharing one cache dir) atomic.
        os.makedirs(self._dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp, path)
        self._dirty = False


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class PairPathView:
    """One (k, method) view of the shared service.

    What ``RoutingScheme.prepare`` hands to schemes as ``self.path_cache``:
    a ``paths`` / ``k`` surface served by the session's shared service
    instead of a private per-scheme cache.
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

    Discovery runs on the CSR kernels whenever the graph allows it; a
    graph they cannot serve (node ids without a total order, or an edge
    without its reverse) stays on the scalar per-pair loops.
    """

    def __init__(self, adjacency: Dict, cache_dir: Optional[str] = None):
        self._adjacency: Dict[object, List] = {
            node: _sorted_ids(neighbours)[0]
            for node, neighbours in adjacency.items()
        }
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
        """Whether the CSR kernels can reproduce the scalar loops here."""
        graph = self.graph
        return graph.consistent and graph.symmetric

    # -- providers ------------------------------------------------------
    def provider(self, k: int, method: str = "edge-disjoint") -> PersistentCache:
        """The (k, method) discovery provider, wrapped for caching.

        ``edge-disjoint`` runs on the CSR provider when the graph allows
        it; ``yen`` uses the scalar loops.
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
        """A :class:`PairPathView` of the (k, method) provider."""
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
        """A full BFS parent tree rooted at ``root``.

        Array-backed when the CSR kernels can serve the graph, dict-backed
        otherwise; parent chains are identical either way (pinned).
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
            cache.persist_to(cache_dir)

    def flush(self) -> None:
        """Write every provider's dirty pair sets to its artifact."""
        for cache in self._views.values():
            cache.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathService(nodes={len(self._adjacency)}, "
            f"views={len(self._views)})"
        )
