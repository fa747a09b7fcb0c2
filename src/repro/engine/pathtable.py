"""Compiled path operations over the flat channel-state store.

Every routing scheme in the paper reduces to the same four operations,
executed thousands of times per simulated second: probe a path's
bottleneck, price its hops, lock funds along it, and settle or refund the
lock.  At 10k-node scale per-hop Python loops over channel objects would
dominate wall time, so they run here as array kernels.

:class:`PathTable` compiles each candidate path **once** into a flat
array of hop direction ids (``d = 2·cid + side``, the store's one hop
address — see :class:`~repro.engine.store.ChannelStateStore`), after
which:

* :meth:`bottleneck` is a fancy-indexed gather + masked min (frozen
  channels fold into the mask);
* :meth:`bottleneck_many` probes a whole path set in one
  ``np.minimum.reduceat`` — and memoises the result per path set until
  the store's ``version`` moves;
* :meth:`deliverable` is the fee-inclusive twin of :meth:`bottleneck`
  for one compiled path: one backward walk closing the fee recurrence;
* :meth:`CompiledPath.hop_amounts` short-circuits fee-free paths (the
  paper's setting) and otherwise runs the reverse fee recurrence over
  precompiled fee schedules;
* :meth:`lock_funds` is the checked, all-or-nothing lock of the
  session's send core on a compiled path: per-hop store writes over
  ``dir_list`` (a path is a few hops, so a loop over Python ints beats a
  NumPy call), returning the per-hop actuals that the unit's
  :class:`~repro.core.payments.TransactionUnit` record carries to its
  resolution, where the store's per-hop ``settle_path_funds`` /
  ``refund_path_funds`` take ``dir_list`` and those actuals back.

All operations are float-for-float identical to plain per-hop arithmetic
on the store arrays — the reference in ``tests/reference/path_ops.py``,
pinned by ``tests/engine/test_pathtable.py`` — including the partial-lock
rollback side effects on a mid-path
:class:`~repro.errors.InsufficientFundsError`.

**The path arena.**  Set-up compiles tens of thousands of paths before the
first payment moves, so :meth:`PathTable.compile_columns` is a batch
kernel, not a loop: it takes discovery's columns
(:class:`~repro.engine.pathservice.PathColumns`) as they are, validates
every path with array operations against the network's channel graph
(:class:`~repro.engine.pathservice.CsrGraph`, the graph discovery ran
on: one ``searchsorted`` of the hops' rank keys over its sorted ``keys``
answers "channel exists" and "which direction" for every hop at once)
and lays their hops out in one :class:`_PathArena` — a flat ``dirs``
column, the ``hop_ptr`` row boundaries and the paths' node ranks.  Per
path the engine then holds one small :class:`CompiledPath`:

* ``dir_list``, a slice of the one Python tuple the ``dirs`` column
  converts to (its ints drawn from the index's ``int_pool``, so every
  path shares one object per direction id), and ``fee_free`` — what the
  per-hop send loops read; it owns no fee schedule
  (:meth:`CompiledPath.hop_amounts` reads the network-wide per-direction
  fee lists through ``dir_list``);
* no NumPy view and no node tuple: ``dirs`` and ``nodes`` are derived
  from its arena row when asked;
* a :class:`_ProbeCache` over paths that sit on consecutive arena rows
  (every set :meth:`PathTable.compile_columns` lays out, so every pair
  the dispatch layer primes) takes ``dirs`` and ``offsets`` as arena
  slices — no per-pair ``concatenate``/``cumsum``.

:meth:`PathTable.compile` stays the one-path entry for ad-hoc paths (LND
attempts, hop transport), each laid out as an arena of one row, and the
arbiter of error type and text: a batch with an invalid path re-runs its
first offender through it and returns nothing.
"""

from __future__ import annotations

import functools
import math
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ChannelError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pathservice import CsrGraph, PathColumns
    from repro.network.network import DirectionIndex, PaymentNetwork

__all__ = ["CompiledPath", "PathTable"]

Path = Tuple[int, ...]
_EPS = 1e-9
_MISSING = object()


class _PathArena:
    """The paths of one compiled batch as flat columns.

    Row ``r``'s hop direction ids are ``dirs[hop_ptr[r]:hop_ptr[r + 1]]``
    and its nodes ``nodes[hop_ptr[r] + r:hop_ptr[r + 1] + r + 1]`` (a path
    has one node more than hops), as positions in ``ids``, the node ids —
    for a batch, discovery's rank column and its graph's node list as they
    are.  Columns are written once and never resized, so the slices
    :class:`CompiledPath` and :class:`_ProbeCache` take of them stay valid
    for the life of the table.
    """

    __slots__ = ("dirs", "hop_ptr", "nodes", "ids")

    def __init__(
        self,
        dirs: np.ndarray,
        hop_ptr: np.ndarray,
        nodes: np.ndarray,
        ids: Sequence,
    ):
        self.dirs = dirs
        self.hop_ptr = hop_ptr
        self.nodes = nodes
        self.ids = ids


class CompiledPath:
    """One path flattened into store indices.

    ``dir_list[i]`` is hop ``i``'s sender direction id in the store's flat
    views (its channel row is ``d >> 1``, a side ``d & 1`` where one is
    still needed), as Python ints for per-hop forwarding loops.  ``fees``
    is the network's :class:`~repro.network.network.DirectionIndex`,
    whose per-direction lists hold the fee schedule *of hop i's channel*
    (the fee an upstream hop pays to route through it) at ``dir_list[i]``;
    ``fee_free`` flags the all-zero common case.  ``arena``/``row``
    locate the path in its :class:`_PathArena`, from which :attr:`dirs`
    and :attr:`nodes` are read when asked.
    """

    __slots__ = (
        "dir_list",
        "fee_free",
        "fees",
        "arena",
        "row",
    )

    def __init__(
        self,
        dir_list: Tuple[int, ...],
        fee_free: bool,
        fees: "DirectionIndex",
        arena: _PathArena,
        row: int,
    ):
        self.dir_list = dir_list
        self.fee_free = fee_free
        self.fees = fees
        self.arena = arena
        self.row = row

    @property
    def dirs(self) -> np.ndarray:
        """The hop direction ids, a view of the arena's ``dirs`` column."""
        ptr = self.arena.hop_ptr
        return self.arena.dirs[ptr[self.row] : ptr[self.row + 1]]

    @property
    def nodes(self) -> Path:
        """The node ids, as a tuple built from the arena's node column."""
        arena, row = self.arena, self.row
        ptr = arena.hop_ptr
        rows = arena.nodes[ptr[row] + row : ptr[row + 1] + row + 1]
        return tuple(map(arena.ids.__getitem__, rows.tolist()))

    def __len__(self) -> int:
        """Number of hops."""
        return len(self.dir_list)

    def hop_amounts(self, amount: float) -> List[float]:
        """Per-hop lock amounts delivering ``amount``, fees included.

        The reverse fee recurrence over the fee schedules of this path's
        directions: working back from the destination, each hop adds its
        downstream channel's forwarding fee (§2).  The session's send core
        (:meth:`SimulationSession.send_compiled
        <repro.engine.session.SimulationSession.send_compiled>`,
        :meth:`~repro.engine.session.SimulationSession.send_atomic`) prices
        every send with it.
        """
        dir_list = self.dir_list
        hops = len(dir_list)
        if hops == 0:
            return []
        if self.fee_free:
            return [amount] * hops
        amounts = [0.0] * hops
        amounts[-1] = amount
        base_fees = self.fees.base_fees
        fee_rates = self.fees.fee_rates
        for i in range(hops - 2, -1, -1):
            downstream = amounts[i + 1]
            d = dir_list[i + 1]
            # forwarding_fee() of the downstream channel, inlined.
            fee = (
                base_fees[d] + fee_rates[d] * downstream
                if downstream > 0
                else 0.0
            )
            amounts[i] = downstream + fee
        return amounts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledPath(nodes={self.nodes!r})"


class _ProbeCache:
    """Memoised bottlenecks of one path set, fresh while ``as_of`` equals
    the store's ``version``.

    It is also the set's *handle*: ``cpaths`` are the set's compiled
    paths, so a caller holding it probes (:meth:`PathTable.bottleneck_many`
    takes it), locks and settles without re-resolving a node tuple.

    ``dirs`` is the set's hops back to back and ``offsets[i]`` where path
    ``i`` starts in it.  Paths on consecutive rows of one arena already
    sit back to back there, so both are arena slices; any other set
    (ad-hoc paths, paths shared between sets) concatenates its own copy.
    """

    __slots__ = (
        "cpaths",
        "dirs",
        "offsets",
        "values_list",
        "as_of",
    )

    def __init__(self, cpaths: List[CompiledPath]):
        self.cpaths = cpaths
        arena, row = cpaths[0].arena, cpaths[0].row
        if all(
            cpath.arena is arena and cpath.row == row + i
            for i, cpath in enumerate(cpaths)
        ):
            ptr = arena.hop_ptr
            self.dirs = arena.dirs[ptr[row] : ptr[row + len(cpaths)]]
            self.offsets = ptr[row : row + len(cpaths)] - ptr[row]
        else:
            self.dirs = np.concatenate([c.dirs for c in cpaths])
            ends = np.cumsum([len(c) for c in cpaths])
            self.offsets = np.concatenate(([0], ends[:-1]))
        self.values_list: List[float] = []
        self.as_of = -1

    def __len__(self) -> int:
        """Number of paths in the set."""
        return len(self.cpaths)


@functools.lru_cache(maxsize=None)
def _one_row(length: int) -> Tuple[np.ndarray, np.ndarray]:
    """``hop_ptr`` and node positions of an arena holding one path of
    ``length`` nodes: read-only, and shared by every such arena, so an
    ad-hoc :meth:`PathTable.compile` allocates only the path's own
    ``dirs``."""
    hop_ptr, positions = np.array([0, length - 1]), np.arange(length)
    hop_ptr.setflags(write=False)
    positions.setflags(write=False)
    return hop_ptr, positions


#: Nodes :meth:`PathTable.compile_columns` validates per step.  Its
#: scratch is ~70 bytes per node, so a batch of any size stays within a
#: few MB of transient arrays.
_COMPILE_CHUNK_NODES = 1 << 16


def _hop_dirs(
    graph: "CsrGraph", ranks: np.ndarray, lengths: np.ndarray
) -> Tuple[int, np.ndarray]:
    """Resolve the hops of paths laid end to end (node ranks ``ranks``,
    ``lengths`` nodes each) against ``graph``'s sorted keys.

    Returns ``(-1, dirs)``, every hop's direction id in path order, or
    ``(i, ...)`` for the first path ``i`` that is empty, revisits a node
    or crosses a hop without a channel.
    """
    n, keys = graph.num_nodes, graph.keys
    path_of_node = np.arange(lengths.shape[0]).repeat(lengths)
    # A revisit is a repeated (path, node) visit: adjacent once sorted.
    visits = path_of_node * n + ranks
    visits.sort()
    revisit = visits[1:] == visits[:-1]
    # Hop i -> i + 1 wherever both nodes belong to the same path.
    heads = np.flatnonzero(path_of_node[1:] == path_of_node[:-1])
    hop_keys = ranks[heads].astype(np.int64) * n + ranks[heads + 1]
    slot = np.searchsorted(keys, hop_keys)
    found = slot < keys.shape[0]
    found[found] = keys[slot[found]] == hop_keys[found]
    offenders = np.concatenate(
        (
            np.flatnonzero(lengths == 0)[:1],
            visits[1:][revisit][:1] // n,
            path_of_node[heads[~found][:1]],
        )
    )
    if offenders.size:
        return int(offenders.min()), slot
    return -1, graph.dirs[slot]


class PathTable:
    """Compiled-path index cache + vectorised path ops for one network.

    Owned lazily by :class:`~repro.network.network.PaymentNetwork`
    (``network.path_table``).  Schemes probe a pair's path set through
    its handle (:meth:`handle` over :meth:`compile_columns` rows, which
    the session's ``path_handle`` serves per pair) and
    :meth:`bottleneck_many`.
    """

    def __init__(self, network: "PaymentNetwork"):
        self._network = network
        self._store = network.state_store
        self._compiled: Dict[Path, CompiledPath] = {}
        self._probes: Dict[Tuple[Path, ...], _ProbeCache] = {}

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, path: Sequence[int]) -> CompiledPath:
        """Compile (and memoise) one ``path`` into flat store indices.

        Validation — empty paths and revisits raise
        :class:`~repro.errors.ChannelError`, unknown nodes/channels
        :class:`~repro.errors.TopologyError` — runs once per distinct path
        instead of on every operation.

        The hop fee schedules (``base_fee``/``fee_rate``) are read through
        the network's :class:`~repro.network.network.DirectionIndex`: like
        the edge set itself, fees are part of the static topology (§2), and
        once the index exists the network refuses to change them.
        """
        key = tuple(path)
        cached = self._compiled.get(key)
        if cached is not None:
            return cached
        network = self._network
        if not key:
            raise ChannelError("empty path")
        seen = set()
        for node in key:
            if not network.has_node(node):
                raise TopologyError(f"path mentions unknown node {node!r}")
            if node in seen:
                raise ChannelError(
                    f"path revisits node {node!r} (paths must be trails)"
                )
            seen.add(node)
        direction_id = network.direction_id
        dir_list = [direction_id(u, v) for u, v in zip(key, key[1:])]
        fees = network.direction_index()
        arena = _PathArena(
            np.array(dir_list, dtype=np.intp), *_one_row(len(key)), key
        )
        compiled = CompiledPath(
            tuple(dir_list),
            not any(fees.base_fees[d] or fees.fee_rates[d] for d in dir_list),
            fees,
            arena,
            0,
        )
        self._compiled[key] = compiled
        return compiled

    def compile_columns(self, columns: "PathColumns") -> List[CompiledPath]:
        """Compile every path of columnar path sets, as one batch.

        Takes :meth:`PersistentCache.columns
        <repro.engine.pathservice.PersistentCache.columns>` output as it
        is, so discovery → compiled store-index arrays is one pipeline
        with no node tuple in between:
        ``table.compile_columns(service.view(k).columns(pairs))``.
        Returns one :class:`CompiledPath` per path row, in row order (set
        ``i``'s are ``columns.set_ptr[i]:columns.set_ptr[i + 1]``; hand
        them to :meth:`handle`).

        The rank column is checked as one array — no revisit, a channel
        under every hop — against the network's channel graph, which must
        be the graph the columns were discovered over (columns over any
        other graph, say one from before the network grew, raise
        :class:`~repro.errors.TopologyError`); the batch's hops then
        become one :class:`_PathArena` whose rows the new paths view.  All
        or nothing: if any path is invalid, the first offender in row
        order is handed to :meth:`compile`, which raises exactly what it
        raises for that path alone.
        """
        graph = self._network.graph()
        if columns.graph is not graph:
            raise TopologyError(
                "path columns were discovered over another channel graph "
                "than the network's current one"
            )
        index = self._network.direction_index()
        path_ptr, column, nodes = columns.path_ptr, columns.nodes, graph.nodes
        lengths = np.diff(path_ptr)
        count = lengths.shape[0]
        pieces: List[np.ndarray] = []
        lo = 0
        while lo < count:
            # The paths whose nodes fit the scratch budget (at least one).
            hi = int(
                np.searchsorted(
                    path_ptr, path_ptr[lo] + _COMPILE_CHUNK_NODES, side="right"
                )
            )
            hi = min(max(hi - 1, lo + 1), count)
            ranks = column[path_ptr[lo] : path_ptr[hi]]
            bad, dirs = _hop_dirs(graph, ranks, lengths[lo:hi])
            if bad >= 0:
                start, end = path_ptr[lo + bad], path_ptr[lo + bad + 1]
                path = map(nodes.__getitem__, column[start:end].tolist())
                self.compile(tuple(path))  # raises
                raise AssertionError("compile() accepted a path the batch rejected")
            pieces.append(dirs)
            lo = hi
        dirs = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.intp)
        dirs.setflags(write=False)
        hop_ptr = path_ptr - np.arange(count + 1)
        arena = _PathArena(dirs, hop_ptr, column, nodes)
        bearing = np.concatenate(([0], np.cumsum(index.fee_bearing[dirs])))
        fee_free = (bearing[hop_ptr[1:]] == bearing[hop_ptr[:-1]]).tolist()
        dir_list = tuple(index.int_pool[dirs])
        ptr = hop_ptr.tolist()
        return [
            CompiledPath(dir_list[start:end], free, index, arena, row)
            for row, (start, end, free) in enumerate(zip(ptr, ptr[1:], fee_free))
        ]

    def handle(self, cpaths: List[CompiledPath]) -> Optional[_ProbeCache]:
        """The probe handle of a path set (``None`` for an empty set or
        one holding a hopless single-node path).

        A set :meth:`compile_columns` laid out (consecutive arena rows)
        probes its arena slices in place; the dispatch plan keeps one
        handle per pair, so a scheme's ``attempt`` probes
        (:meth:`bottleneck_many`) and locks on the compiled paths without
        re-keying the set on every attempt.
        """
        if not cpaths or not all(cpath.dir_list for cpath in cpaths):
            return None
        return _ProbeCache(cpaths)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def bottleneck(self, cpath: CompiledPath) -> float:
        """Minimum directional availability along ``cpath`` (``inf`` for
        a hopless path).

        A raw hop minimum: on a fee-bearing path the upstream hops must
        also carry the downstream fees, so less than this can be delivered
        (see :meth:`deliverable`)."""
        if not cpath.dir_list:
            return math.inf
        values = self._store.availability(cpath.dirs)
        return float(values.min())

    def deliverable(self, cpath: CompiledPath) -> float:
        """Most value ``cpath`` can deliver right now, fees included.

        :meth:`CompiledPath.hop_amounts` is affine per hop: hop ``i``
        locks ``scale_i · x + shift_i`` to deliver ``x``.  One backward walk
        builds both (``scale *= 1 + rate``, ``shift = shift · (1 + rate) +
        base`` after each hop) and returns ``min_i (avail_i − shift_i) /
        scale_i``, a frozen hop counting as 0 available.  On a fee-free
        path this is exactly :meth:`bottleneck`; ``inf`` for a hopless
        path.  Fee schedules are finite and non-negative (channels and
        configs reject anything else), so ``scale`` never reaches 0.
        """
        dir_list = cpath.dir_list
        if not dir_list:
            return math.inf
        store = self._store
        balance = store.balance_flat
        frozen = store.frozen if store.frozen_count else None
        fees = cpath.fees
        base_fees = fees.base_fees
        fee_rates = fees.fee_rates
        scale = 1.0
        shift = 0.0
        best = math.inf
        for d in reversed(dir_list):
            available = (
                0.0 if frozen is not None and frozen[d >> 1] else balance.item(d)
            )
            value = (available - shift) / scale
            if value < best:
                best = value
            growth = 1.0 + fee_rates[d]
            scale *= growth
            shift = shift * growth + base_fees[d]
        return best

    def probe_handle(
        self, paths: Sequence[Sequence[int]]
    ) -> Optional[_ProbeCache]:
        """:meth:`handle` of node-tuple paths, memoised per set (``None``
        for an empty set or one holding a hopless single-node path).

        For ad-hoc sets (landmark legs, tests); the dispatch plan builds
        its handles from :meth:`compile_columns` rows instead.
        """
        try:
            key = tuple(paths)
            probe = self._probes.get(key, _MISSING)
        except TypeError:  # unhashable path elements (lists)
            key = tuple(tuple(p) for p in paths)
            probe = self._probes.get(key, _MISSING)
        if probe is _MISSING:
            lookup = self._compiled.get
            probe = self.handle([lookup(p) or self.compile(p) for p in key])
            self._probes[key] = probe
        return probe

    def refresh_probes(self, probes: Sequence[_ProbeCache]) -> None:
        """Refresh a batch of probe caches with one concatenated gather.

        A batched cohort probe: instead of one ``availability``
        gather + ``minimum.reduceat`` per path set, every stale probe's
        hop indices concatenate into a single gather and a single reduceat
        whose segment boundaries are each probe's offsets rebased into the
        combined array.  Segment minima over identical hop values are
        bit-identical to the per-set computation, so a probe refreshed
        here returns exactly what :meth:`bottleneck_many` would have
        computed for it.  Already-fresh probes (``as_of`` at the current
        store version) are skipped; duplicate handles refresh once.

        Nothing in the engine calls it: it stays only while the end-to-end
        benchmark's span list wraps it by name.
        """
        store = self._store
        version = store.version
        todo: List[_ProbeCache] = []
        seen = set()
        for probe in probes:
            if probe.as_of == version:
                continue
            marker = id(probe)
            if marker in seen:
                continue
            seen.add(marker)
            todo.append(probe)
        if not todo:
            return
        avail = store.availability(np.concatenate([probe.dirs for probe in todo]))
        offset_parts: List[np.ndarray] = []
        base = 0
        for probe in todo:
            offset_parts.append(probe.offsets + base)
            base += probe.dirs.shape[0]
        values = np.minimum.reduceat(avail, np.concatenate(offset_parts)).tolist()
        pos = 0
        for probe in todo:
            count = len(probe.cpaths)
            probe.values_list = values[pos : pos + count]
            probe.as_of = version
            pos += count

    def bottleneck_many(self, probe: _ProbeCache) -> List[float]:
        """Bottlenecks of a whole path set in one vectorised pass.

        ``probe`` is the set's handle (what :meth:`handle` returns).
        Results are memoised per path set: a probe is fresh exactly when
        its ``as_of`` equals the store's ``version``, and then the cached
        values come back with no array work at all; otherwise the whole
        set re-gathers once.  Returns a fresh list of floats: raw hop
        minima, without fees (:meth:`deliverable` prices those in for one
        path).
        """
        store = self._store
        version = store.version
        if probe.as_of == version:
            return probe.values_list.copy()
        avail = store.availability(probe.dirs)
        probe.values_list = np.minimum.reduceat(avail, probe.offsets).tolist()
        probe.as_of = version
        return probe.values_list.copy()

    def unfunded_hop(
        self, cpath: CompiledPath, amounts: Sequence[float]
    ) -> Optional[int]:
        """Index of the first hop of ``cpath`` whose availability (0 where
        frozen) misses its lock amount.

        The quantity LND's onion error reports; ``None`` when every hop is
        funded.
        """
        short = self._store.availability(cpath.dirs) + _EPS < np.asarray(amounts)
        if not short.any():
            return None
        return int(np.argmax(short))

    # ------------------------------------------------------------------
    # Locks
    # ------------------------------------------------------------------
    def lock_path(
        self, path: Sequence[int], amounts: Sequence[float]
    ) -> List[float]:
        """:meth:`lock_funds` on the compiled ``path``.

        Nothing in the engine calls it: it stays only while the end-to-end
        benchmark's span list wraps it by name.
        """
        return self.lock_funds(self.compile(path), amounts)

    def lock_funds(
        self, cpath: CompiledPath, amounts: Sequence[float]
    ) -> List[float]:
        """Atomically lock ``amounts[i]`` on hop ``i`` of ``cpath``;
        returns the per-hop actual amounts.

        Every check (a hop to lock on, one positive finite amount per hop)
        runs before the store is written.  All-or-nothing: a frozen or
        under-funded hop raises
        :class:`~repro.errors.InsufficientFundsError` and the store is left
        exactly as a per-hop lock-then-rollback loop leaves it (see
        :meth:`ChannelStateStore.lock_path_funds`).
        """
        hops = len(cpath.dir_list)
        if hops == 0:
            raise ChannelError(
                "cannot lock funds on a path with fewer than 2 nodes"
            )
        requested = [float(amount) for amount in amounts]
        if len(requested) != hops:
            raise ChannelError(
                f"path has {hops} hops but {len(requested)} "
                "amounts were supplied"
            )
        for bad, amount in enumerate(requested):
            # Positive and finite (NaN fails both comparisons).
            if not 0.0 < amount < math.inf:
                raise ChannelError(
                    "lock amount must be positive and finite, "
                    f"got {amounts[bad]!r}"
                )
        return self._store.lock_path_funds(cpath.dir_list, requested)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathTable(paths={len(self._compiled)}, "
            f"probe_sets={len(self._probes)})"
        )
