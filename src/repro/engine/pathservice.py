"""First-class path discovery: the PathService facade and its providers.

The paper fixes every pair's path set before the run starts ("4 edge-disjoint
shortest paths", §6.1), so path discovery is a precomputable, shareable
artifact.  :class:`PathService` is the only way the system discovers paths.
It owns one CSR graph per network — a network's service shares the
arrays of its :class:`~repro.network.network.ChannelGraph`, and builds
the ``{node: neighbours}`` mapping only for the schemes that walk it —
and serves discovery one way:
``view(k)`` returns the memoising :class:`PersistentCache` for ``k`` paths
per pair, whose ``columns(pairs)`` / ``paths(src, dst)`` /
``paths_many(pairs)`` / ``prepare(pairs)`` every consumer calls.

* :class:`CsrDisjointProvider` — CSR adjacency (flat ``indptr``/``indices``
  arrays, rows sorted so the BFS tie-break is explicit) searched from both
  endpoints at once: level sets grow as NumPy index operations until they
  meet, and the path is read off the distances (the scalar BFS's parent
  chain is the lexicographically smallest shortest path, so no parent
  array is needed).  One kernel (:class:`_Lockstep`) serves a whole chunk
  of pairs per NumPy call — every operation is keyed by ``(pair, node)``,
  each pair has its own labels and edge mask — so cold discovery costs
  element work, not call overhead; ``paths`` is a batch of one.  Paths are
  **byte-identical** to the per-pair
  :func:`~repro.fluid.paths.k_edge_disjoint_paths` loop, the oracle
  ``tests/engine/test_pathservice.py`` pins them against.
* :class:`LandmarkProvider` — SilentWhispers pair assembly from shared BFS
  trees (one tree per landmark plus one per distinct source) instead of two
  fresh BFS runs per (pair, landmark).
* :class:`PersistentCache` — memoises the CSR provider's pair sets
  in-process (shared across networks with identical topology, keyed by a
  topology/k hash) and persists them to disk next to the sweep JSON cache,
  so repeat runs and :class:`SweepExecutor` cells load discovery artifacts
  instead of recomputing them.

**The path store is columnar.**  From the kernel to the compiler a set of
paths is one :class:`PathColumns` — per-set path pointers, per-path node
pointers and one column of node indices into the graph's sorted node
list — never a tuple per path or an ``int`` per node: :class:`_Lockstep`
appends the chains it walks to columns, :class:`PersistentCache` keeps one
columnar store per key process-wide and writes it as an ``.npz`` archive
of the same columns (schema 2; loaded with ``allow_pickle=False`` and
validated column by column, anything else counts as absent), and
:meth:`PersistentCache.columns` hands the columns of a pair list to
:meth:`repro.engine.pathtable.PathTable.compile_columns`.  Node tuples
are built on request only, by :meth:`PersistentCache.paths` /
:meth:`PersistentCache.paths_many`, for the callers that walk node ids
(the LP and fluid path sets, the CLI).

Both kernels need a channel graph whose node ids are totally ordered and
whose every edge has its reverse — what a
:class:`~repro.network.network.PaymentNetwork` always builds.  Any other
input is rejected with a :class:`~repro.errors.TopologyError` naming the
node or edge.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import zipfile
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import PaymentNetwork

import numpy as np

from repro.engine.pathtable import int_node_array
from repro.errors import TopologyError

__all__ = [
    "CsrGraph",
    "CsrDisjointProvider",
    "LandmarkProvider",
    "PathColumns",
    "PersistentCache",
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


def _sorted_ids(ids: Iterable) -> List:
    """``ids`` in ascending order.

    Raises :class:`~repro.errors.TopologyError` naming an id that cannot
    be compared with the first: the CSR layout and every BFS tie-break
    need a total order.
    """
    try:
        return sorted(ids)
    except TypeError:
        first, *rest = ids
        odd = next((i for i in rest if type(i) is not type(first)), first)
        raise TopologyError(
            f"node id {odd!r} cannot be ordered against {first!r}"
        ) from None


def _pointers(sizes: np.ndarray) -> np.ndarray:
    """The pointer column of segments of ``sizes``: ``[0, cumsum...]``."""
    ptr = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


def _ragged_take(
    ptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Segments ``rows`` of pointer column ``ptr``, back to back: their
    new pointer column and the positions of their elements."""
    starts = ptr[rows]
    sizes = ptr[rows + 1] - starts
    out = _pointers(sizes)
    return out, np.arange(out[-1]) + (starts - out[:-1]).repeat(sizes)


class PathColumns:
    """Pair path sets as integer columns.

    Set ``i``'s paths are rows ``set_ptr[i]:set_ptr[i + 1]``, and path
    ``j``'s nodes are ``nodes[path_ptr[j]:path_ptr[j + 1]]`` — indices
    into ``graph.nodes``, the ascending node ids, so no column holds a
    Python object per node or per path.  Both pointer columns start at 0.

    What discovery produces (:meth:`CsrDisjointProvider.columns`),
    :class:`PersistentCache` keeps and persists, and
    :meth:`PathTable.compile_columns
    <repro.engine.pathtable.PathTable.compile_columns>` compiles.  Node
    tuples are built only when asked for (:meth:`to_lists`).
    """

    __slots__ = ("graph", "set_ptr", "path_ptr", "nodes")

    def __init__(
        self,
        graph: "CsrGraph",
        set_ptr: np.ndarray,
        path_ptr: np.ndarray,
        nodes: np.ndarray,
    ):
        self.graph = graph
        self.set_ptr = set_ptr
        self.path_ptr = path_ptr
        self.nodes = nodes

    def take(self, rows: np.ndarray) -> "PathColumns":
        """The sets at ``rows``, in that order (repeats allowed)."""
        set_ptr, paths = _ragged_take(self.set_ptr, rows)
        path_ptr, positions = _ragged_take(self.path_ptr, paths)
        return PathColumns(self.graph, set_ptr, path_ptr, self.nodes[positions])

    def to_lists(self) -> List[List[Path]]:
        """Every set as a list of node-id tuples."""
        names = self.graph.nodes
        ids = list(map(names.__getitem__, self.nodes.tolist()))
        ptr = self.path_ptr.tolist()
        paths = [tuple(ids[lo:hi]) for lo, hi in zip(ptr, ptr[1:])]
        sets = self.set_ptr.tolist()
        return [paths[lo:hi] for lo, hi in zip(sets, sets[1:])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathColumns(sets={self.set_ptr.shape[0] - 1}, "
            f"paths={self.path_ptr.shape[0] - 1})"
        )


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

    The graph must be symmetric — the bidirectional search reads the same
    entries from both endpoints, and ``twin`` is meaningless otherwise —
    so an edge without its reverse raises
    :class:`~repro.errors.TopologyError`.
    """

    __slots__ = (
        "nodes",
        "ids",
        "index",
        "indptr",
        "indices",
        "degree",
        "twin",
        "_arange",
    )

    def __init__(
        self, nodes: List, index: Dict, indptr: np.ndarray, indices: np.ndarray
    ):
        self.nodes = nodes
        #: The node ids as an int64 array (``None`` unless every id is a
        #: plain ``int``): what a node index column maps through.
        self.ids = int_node_array(nodes)
        self.index = index
        self.indptr = indptr
        self.indices = indices
        # Entries are sorted by (owner, neighbour); sorting them by
        # (neighbour, owner) instead lists every reverse edge in the same
        # rank order, so on a symmetric graph the permutation itself is
        # the entry -> reverse-entry map.
        self.degree = np.diff(indptr)
        owners = np.repeat(
            np.arange(indptr.shape[0] - 1, dtype=np.int32), self.degree
        )
        self.twin = np.lexsort((owners, indices)).astype(np.int32)
        if not (
            (indices[self.twin] == owners).all()
            and (owners[self.twin] == indices).all()
        ):
            # Rows hold no repeats, so some entry's reverse is missing.
            size = np.int64(len(nodes))
            forward = owners * size + indices
            pos = np.isin(indices * size + owners, forward, invert=True).argmax()
            raise TopologyError(
                f"edge {nodes[owners[pos]]!r} -> {nodes[indices[pos]]!r} "
                "has no reverse; path discovery needs an undirected graph"
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
        nodes = _sorted_ids(adjacency)
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
        return cls(nodes, index, indptr, indices)

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
# Providers
# ----------------------------------------------------------------------
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

    Output is byte-identical to the per-pair
    :func:`~repro.fluid.paths.k_edge_disjoint_paths` loop — including the
    degenerate cases it produces (``src == dst`` yields ``k`` copies of the
    single-node path; unknown endpoints yield an empty set).

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
    a symmetric graph (which :class:`CsrGraph` guarantees) and an edge
    mask that always covers both directions of an edge.

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

    def __init__(self, graph: CsrGraph, k: int):
        self._graph = graph
        self._k = k

    @property
    def graph(self) -> CsrGraph:
        """The CSR graph searched (its node list names the columns' indices)."""
        return self._graph

    def paths(self, source: int, dest: int) -> List[Path]:
        """The pair's path set (fewer than k when the graph runs out)."""
        return self.paths_many([(source, dest)])[0]

    def paths_many(self, pairs: Sequence[Pair]) -> List[List[Path]]:
        """Path sets for every pair, in pair order, as node tuples."""
        index = self._graph.index
        out: List[List[Path]] = []
        known: List[Pair] = []
        slots: List[int] = []
        for source, dest in pairs:
            if source in index and dest in index:
                slots.append(len(out))
                known.append((source, dest))
            # Parity: the scalar loop re-finds the single-node path k
            # times, and finds nothing for an endpoint outside the graph.
            out.append([(source,)] * self._k if source == dest else [])
        for slot, paths in zip(slots, self.columns(known).to_lists()):
            out[slot] = paths
        return out

    def columns(self, pairs: Sequence[Pair]) -> "PathColumns":
        """The path sets of ``pairs`` as columns, in pair order.

        Both endpoints of every pair must be graph nodes (a
        :class:`KeyError` names the first that is not).
        """
        graph = self._graph
        index = graph.index
        src = np.array([index[source] for source, _ in pairs], dtype=np.intp)
        dst = np.array([index[dest] for _, dest in pairs], dtype=np.intp)
        k = self._k
        # A pair sends to itself along the single-node path, k times.
        loops = np.flatnonzero(src == dst).repeat(k)
        owners = [loops]
        sizes = [np.ones(loops.shape[0], dtype=np.intp)]
        chains = [src[loops]]
        slots = np.flatnonzero(src != dst)
        if slots.shape[0]:
            src_s, dst_s = src[slots], dst[slots]
            # Every simple path uses up one edge at each endpoint, so the
            # search after the min(deg)-th path is known to fail.
            degree = graph.degree
            budget = np.minimum(k, np.minimum(degree[src_s], degree[dst_s]))
            width = min(
                slots.shape[0],
                _chunk_pairs(graph.num_nodes, graph.indices.shape[0]),
            )
            kernel = _Lockstep(graph, width)
            for lo in range(0, slots.shape[0], width):
                hi = lo + width
                owner, size, chain = kernel.run(
                    src_s[lo:hi], dst_s[lo:hi], budget[lo:hi]
                )
                owners.append(slots[lo:hi][owner])
                sizes.append(size)
                chains.append(chain)
        # Group the paths by pair; the sort is stable, so each pair's
        # paths keep the order the search found them in.
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        path_ptr, positions = _ragged_take(
            _pointers(np.concatenate(sizes)), order
        )
        return PathColumns(
            graph,
            _pointers(np.bincount(owner, minlength=src.shape[0])),
            path_ptr,
            np.concatenate(chains)[positions].astype(np.int32),
        )


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
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Up to ``budget`` paths for each ``(src, dst)`` index pair.

        Returns the paths as three columns, in the order they were found
        (round by round, so each pair's paths in its own order): per path
        its local pair number and its node count, and every path's node
        indices back to back.
        """
        twin = self.graph.twin
        empty = np.zeros(0, dtype=np.intp)
        owners, sizes, chains = [empty], [empty], [empty]
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
                owners.append(active)
                sizes.append(lengths + 1)
                chains.append(chain.T[np.arange(chain.shape[0]) <= lengths[:, None]])
            self.dist[np.concatenate(touched)] = -1
        if masked:
            self.alive[np.concatenate(masked)] = True
        return np.concatenate(owners), np.concatenate(sizes), np.concatenate(chains)

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

    #: Source-rooted trees kept at once (landmark trees are unbounded —
    #: there are only ``num_landmarks`` of them and every pair reuses
    #: them).  64 trees × O(4·nodes) bytes stays a few MB at 10k nodes.
    source_tree_limit = 64

    def __init__(self, service: "PathService", landmarks: Sequence):
        self._service = service
        self.landmarks = list(landmarks)
        self._trees: Dict[int, _ArrayTree] = {}
        self._source_trees: Dict[int, _ArrayTree] = {}
        self._pairs: Dict[Pair, List[Path]] = {}

    def _tree(self, root: int) -> _ArrayTree:
        tree = self._trees.get(root)
        if tree is None:
            tree = self._service.bfs_tree(root)
            self._trees[root] = tree
        return tree

    def _source_tree(self, source: int) -> _ArrayTree:
        if source in self._trees:  # a landmark sending: reuse its tree
            return self._trees[source]
        tree = self._source_trees.get(source)
        if tree is None:
            tree = self._service.bfs_tree(source)
            if len(self._source_trees) >= self.source_tree_limit:
                self._source_trees.pop(next(iter(self._source_trees)))
            self._source_trees[source] = tree
        return tree

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


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
class _PathStore:
    """Every known path set of one topology and ``k``: one
    :class:`PathColumns` and the pair → set-row map beside it."""

    __slots__ = ("rows", "sets")

    def __init__(self, graph: CsrGraph):
        self.rows: Dict[Pair, int] = {}
        self.sets = PathColumns(
            graph,
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
        )

    def __len__(self) -> int:
        """Number of pairs known."""
        return len(self.rows)

    def append(self, pairs: Sequence[Pair], sets: PathColumns) -> None:
        """Add new ``pairs`` with their path ``sets`` (in pair order)."""
        base = len(self.rows)
        self.rows.update(zip(pairs, range(base, base + len(pairs))))
        old = self.sets
        if base == 0:
            self.sets = sets
            return
        self.sets = PathColumns(
            old.graph,
            np.concatenate((old.set_ptr, sets.set_ptr[1:] + old.set_ptr[-1])),
            np.concatenate((old.path_ptr, sets.path_ptr[1:] + old.path_ptr[-1])),
            np.concatenate((old.nodes, sets.nodes)),
        )


#: The arrays of a path artifact (``<name>.npy`` members of its ``.npz``).
_ARTIFACT_ARRAYS = (
    "schema",
    "key",
    "pair_src",
    "pair_dst",
    "set_ptr",
    "path_ptr",
    "nodes",
)


def _artifact_columns(
    arrays: Dict[str, np.ndarray], schema: int, key: str, graph: CsrGraph
) -> Optional[Tuple[List[Pair], PathColumns]]:
    """The pairs and path sets an artifact's arrays hold, ``None`` unless
    they are exactly what :meth:`PersistentCache.flush` writes for this
    ``schema``, ``key`` and graph.

    Checked before any column is used as an index: integer 1-d columns;
    pairs strictly ascending (so none repeats); pointer columns that
    start at 0, never decrease (a set may be empty; a path holds at least
    one node) and end at the length of the column they point into; every
    node and endpoint a node index of ``graph``; every path starting at
    its pair's source and ending at its destination.  Whether a path's
    hops are channels is :meth:`PathTable.compile_columns
    <repro.engine.pathtable.PathTable.compile_columns>`' to check.
    """
    tag, name = arrays["schema"], arrays["key"]
    if tag.shape != () or tag.dtype.kind not in "iu" or int(tag) != schema:
        return None
    if name.shape != () or name.dtype.kind != "U" or str(name) != key:
        return None
    columns = [arrays[field] for field in _ARTIFACT_ARRAYS[2:]]
    if any(column.ndim != 1 or column.dtype.kind not in "iu" for column in columns):
        return None
    nodes = columns.pop()
    src, dst, set_ptr, path_ptr = (
        column.astype(np.int64, copy=False) for column in columns
    )
    num_nodes = graph.num_nodes
    count = src.shape[0]
    if (
        dst.shape[0] != count
        or set_ptr.shape[0] != count + 1
        or set_ptr[0] != 0
        or set_ptr[-1] != path_ptr.shape[0] - 1
        or path_ptr[0] != 0
        or path_ptr[-1] != nodes.shape[0]
        or (np.diff(set_ptr) < 0).any()
        or (np.diff(path_ptr) < 1).any()
    ):
        return None
    for column in (src, dst, nodes):
        if column.shape[0] and (column.min() < 0 or column.max() >= num_nodes):
            return None
    if (np.diff(src * num_nodes + dst) <= 0).any():
        return None
    owner = np.arange(count).repeat(np.diff(set_ptr))
    if (nodes[path_ptr[:-1]] != src[owner]).any() or (
        nodes[path_ptr[1:] - 1] != dst[owner]
    ).any():
        return None
    names = graph.nodes
    pairs = list(
        zip(
            map(names.__getitem__, src.tolist()),
            map(names.__getitem__, dst.tolist()),
        )
    )
    return pairs, PathColumns(
        graph, set_ptr, path_ptr, nodes.astype(np.int32, copy=False)
    )


def _write_npz(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """``arrays`` as an uncompressed ``.npz`` archive at ``path``.

    Every member carries the same fixed timestamp (``np.savez`` stamps
    the clock), so equal arrays give equal bytes.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, array, allow_pickle=False)
            archive.writestr(zipfile.ZipInfo(f"{name}.npy"), member.getvalue())


class PersistentCache:
    """Discovery for one ``k``: in-process memoisation + on-disk artifacts.

    What :meth:`PathService.view` returns: every pair set comes from the
    wrapped :class:`CsrDisjointProvider` at most once.  Pair sets live in
    a process-wide columnar store (a :class:`PathColumns` plus a pair →
    row map) keyed by the topology/k hash, so two networks with identical
    adjacency (repeat runs, multi-scheme comparisons, sweep cells in one
    process) share one computation.  :meth:`columns` serves the store's
    columns to the compiler; :meth:`paths` / :meth:`paths_many` build
    node tuples from them on request.

    :meth:`persist_to` attaches a cache directory: a known artifact is
    loaded eagerly and :meth:`flush` (called by :meth:`prepare` and at
    session end) writes the merged pair sets back atomically — the same
    share-by-content discipline as the sweep JSON cache, so
    ``SweepExecutor`` workers load discovery from disk instead of
    recomputing it per cell.  The artifact is the store's columns as an
    ``.npz`` archive (:data:`_ARTIFACT_ARRAYS`), loaded with
    ``allow_pickle=False`` and validated before use
    (:func:`_artifact_columns`).

    A pair with an endpoint outside the graph is never stored: its set is
    trivial (empty, or the single-node path ``k`` times) and has no node
    index to be written with, so the provider answers it on every call.
    """

    _ARTIFACT_SCHEMA = 2
    #: Process-wide pair stores, keyed by the full cache key.
    _shared: Dict[str, _PathStore] = {}

    def __init__(
        self, provider: CsrDisjointProvider, key: str, cache_dir: Optional[str] = None
    ):
        self.provider = provider
        self.key = key
        store = self._shared.get(key)
        if store is None:
            store = self._shared[key] = _PathStore(provider.graph)
        self._store = store
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
        return self.paths_many([(source, dest)])[0]

    def paths_many(self, pairs: Sequence[Pair]) -> List[List[Path]]:
        """Path sets for every pair, in pair order (repeats included), as
        node tuples; the misses go to the provider as one batch."""
        keys = [(source, dest) for source, dest in pairs]
        rows = self._rows(keys)
        known = iter(
            self._store.sets.take(
                np.array([row for row in rows if row is not None], dtype=np.intp)
            ).to_lists()
        )
        odd = [key for key, row in zip(keys, rows) if row is None]
        other = iter(self.provider.paths_many(odd) if odd else ())
        return [next(known) if row is not None else next(other) for row in rows]

    def columns(self, pairs: Sequence[Pair]) -> PathColumns:
        """The pairs' path sets as columns, in pair order (repeats
        included; a pair with an endpoint outside the graph has none);
        the misses go to the provider as one batch."""
        rows = self._rows([(source, dest) for source, dest in pairs])
        present = [row for row in rows if row is not None]
        sets = self._store.sets.take(np.array(present, dtype=np.intp))
        if len(present) < len(rows):
            sizes = np.zeros(len(rows), dtype=np.int64)
            sizes[[i for i, row in enumerate(rows) if row is not None]] = np.diff(
                sets.set_ptr
            )
            sets = PathColumns(sets.graph, _pointers(sizes), sets.path_ptr, sets.nodes)
        return sets

    def prepare(self, pairs: Iterable[Pair]) -> None:
        """Batch-compute every missing pair, then flush the artifact."""
        self._rows([(source, dest) for source, dest in pairs])
        self.flush()

    def _rows(self, keys: List[Pair]) -> List[Optional[int]]:
        """The store rows of ``keys`` (``None`` for a pair with an
        endpoint outside the graph), after one provider ``columns`` call
        over the distinct unknown ones."""
        store = self._store
        rows = store.rows
        index = store.sets.graph.index
        missing = [
            key
            for key in dict.fromkeys(keys)
            if key not in rows and key[0] in index and key[1] in index
        ]
        if missing:
            store.append(missing, self.provider.columns(missing))
            self._dirty = True
        get = rows.get
        return [get(key) for key in keys]

    # -- disk artifacts -------------------------------------------------
    def persist_to(self, cache_dir: str) -> None:
        """Attach ``cache_dir`` and load this key's artifact if present."""
        self._dir = cache_dir
        known = len(self._store)
        if self._merge_artifact() < known:
            # The process-wide store already holds pairs the artifact
            # lacks (discovered before this directory was attached, by
            # this or an earlier service instance) — mark dirty so the
            # next flush writes them out rather than silently skipping.
            self._dirty = True

    def _artifact_path(self) -> Optional[str]:
        if self._dir is None:
            return None
        return os.path.join(self._dir, f"paths-{self.key}.npz")

    def _merge_artifact(self) -> int:
        """Add the artifact's pairs the store lacks; returns how many of
        its pairs the store already knew (0 without a usable artifact).

        A file that cannot be read, is not the archive :meth:`flush`
        writes, or carries another schema or key (renamed, copied, stale,
        a schema-1 JSON file) is treated as absent: its pairs are
        recomputed and the next :meth:`flush` overwrites it.
        """
        path = self._artifact_path()
        if path is None or not os.path.exists(path):
            return 0
        try:
            with np.load(path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in _ARTIFACT_ARRAYS}
        except Exception:  # whatever a damaged file makes the zip/.npy reader raise
            return 0
        store = self._store
        loaded = _artifact_columns(
            arrays, self._ARTIFACT_SCHEMA, self.key, store.sets.graph
        )
        if loaded is None:
            return 0
        pairs, sets = loaded
        rows = store.rows
        new = [i for i, pair in enumerate(pairs) if pair not in rows]
        if len(new) == len(pairs):
            store.append(pairs, sets)
        elif new:
            store.append(
                [pairs[i] for i in new], sets.take(np.array(new, dtype=np.intp))
            )
        return len(pairs) - len(new)

    def flush(self) -> None:
        """Write the merged pair sets to the artifact (atomic replace).

        A no-op without a cache directory or new pairs.  Pairs another
        writer added to the file since it was loaded are merged in first;
        a schema-1 JSON artifact of the same key is removed.
        """
        path = self._artifact_path()
        if path is None or not self._dirty:
            return
        self._merge_artifact()
        store = self._store
        index = store.sets.graph.index
        src = np.array([index[source] for source, _ in store.rows], dtype=np.int32)
        dst = np.array([index[dest] for _, dest in store.rows], dtype=np.int32)
        order = np.lexsort((dst, src))
        sets = store.sets.take(order)
        # A pid-suffixed tmp plus os.replace keeps concurrent flushes (sweep
        # cells sharing one cache dir) atomic.
        os.makedirs(self._dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        _write_npz(
            tmp,
            {
                "schema": np.array(self._ARTIFACT_SCHEMA),
                "key": np.array(self.key),
                "pair_src": src[order],
                "pair_dst": dst[order],
                "set_ptr": sets.set_ptr,
                "path_ptr": sets.path_ptr,
                "nodes": sets.nodes,
            },
        )
        os.replace(tmp, path)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.splitext(path)[0] + ".json")
        self._dirty = False


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class PathService:
    """One network's path-discovery facade — the only discovery entry point.

    Owns the CSR graph (a network's, shared as it is; a plain adjacency's,
    compiled lazily) and the sorted adjacency mapping (built on first
    request, shared by every consumer that walks node ids), and serves
    discovery through :meth:`view`: one memoising
    :class:`PersistentCache` per ``k`` whose pair sets are shared
    process-wide and optionally persisted to disk.

    Node ids without a total order, or an edge without its reverse, raise
    :class:`~repro.errors.TopologyError` naming the node or edge (when
    the adjacency is sorted, and when the CSR graph is compiled).
    """

    def __init__(
        self,
        adjacency: Optional[Dict],
        cache_dir: Optional[str] = None,
        graph: Optional[CsrGraph] = None,
    ):
        """Over ``adjacency`` (compiled into the CSR graph when first
        needed) or, when it is ``None``, over the compiled ``graph``."""
        self._adjacency: Optional[Dict[object, List]] = None
        if adjacency is not None:
            self._adjacency = {
                node: _sorted_ids(neighbours)
                for node, neighbours in adjacency.items()
            }
        self._cache_dir = cache_dir
        self._graph = graph
        self._fingerprint: Optional[str] = None
        self._views: Dict[int, PersistentCache] = {}
        self._landmark_providers: Dict[int, LandmarkProvider] = {}

    @classmethod
    def from_network(cls, network: "PaymentNetwork", cache_dir: Optional[str] = None) -> "PathService":
        """Build the service over a
        :class:`~repro.network.network.PaymentNetwork`'s channel graph:
        its :class:`~repro.network.network.ChannelGraph` already is the
        sorted CSR layout, so the service shares its arrays."""
        channels = network.graph()
        if not channels.ordered:
            _sorted_ids(channels.nodes)  # raises, naming the odd id
        graph = CsrGraph(
            channels.nodes, channels.index, channels.indptr, channels.indices
        )
        return cls(None, cache_dir=cache_dir, graph=graph)

    @classmethod
    def from_adjacency(cls, adjacency: Dict, cache_dir: Optional[str] = None) -> "PathService":
        """Build the service over a plain adjacency mapping."""
        return cls(adjacency, cache_dir=cache_dir)

    # -- shared graph structure ----------------------------------------
    def sorted_adjacency(self) -> Dict[object, List]:
        """``{node: sorted neighbour list}`` — built once per network,
        when first asked for.

        The explicit neighbour ordering every BFS tie-break derives from;
        consumers (the embedding trees) must not mutate it.
        """
        if self._adjacency is None:
            graph = self.graph
            nodes, ptr = graph.nodes, graph.indptr.tolist()
            row = graph.indices.tolist()
            self._adjacency = {
                node: [nodes[j] for j in row[ptr[r] : ptr[r + 1]]]
                for r, node in enumerate(nodes)
            }
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

    # -- discovery ------------------------------------------------------
    def view(self, k: int) -> PersistentCache:
        """The memoising discovery cache for ``k`` paths per pair.

        Repeated calls return the same :class:`PersistentCache`, over a
        :class:`CsrDisjointProvider` for this graph.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        cache = self._views.get(k)
        if cache is None:
            cache = PersistentCache(
                CsrDisjointProvider(self.graph, k),
                f"{self.topology_fingerprint}-k{k}",
                self._cache_dir,
            )
            self._views[k] = cache
        return cache

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
            graph = self.graph
            # Ranks follow id order, so a stable sort by degree breaks
            # ties by id.
            by_degree = np.argsort(-graph.degree, kind="stable")
            provider = LandmarkProvider(
                self, [graph.nodes[r] for r in by_degree[:num_landmarks].tolist()]
            )
            self._landmark_providers[num_landmarks] = provider
        return provider

    def bfs_tree(self, root: int) -> _ArrayTree:
        """A full BFS parent tree rooted at ``root`` (one that reaches
        nothing for a root outside the graph)."""
        graph = self.graph
        index = graph.index.get(root)
        if index is None:
            return _ArrayTree(graph, np.full(graph.num_nodes, -1, dtype=np.int32), -1)
        return _ArrayTree(graph, _csr_level_bfs(graph, index), index)

    # -- persistence ----------------------------------------------------
    def persist_to(self, cache_dir: str) -> None:
        """Attach a cache directory to current and future views."""
        self._cache_dir = cache_dir
        for cache in self._views.values():
            cache.persist_to(cache_dir)

    def flush(self) -> None:
        """Write every view's dirty pair sets to its artifact."""
        for cache in self._views.values():
            cache.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathService(nodes={self.graph.num_nodes}, "
            f"views={len(self._views)})"
        )
