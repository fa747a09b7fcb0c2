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
  resolution;
* :meth:`lock_path` / :meth:`settle` / :meth:`refund` are the node-tuple
  facade of the same kernels (``PaymentNetwork.lock_path`` and friends),
  recording each lock as one :class:`PathLock`.

All operations are float-for-float identical to plain per-hop arithmetic
on the store arrays — the reference in ``tests/reference/path_ops.py``,
pinned by ``tests/engine/test_pathtable.py`` — including the partial-lock
rollback side effects on a mid-path
:class:`~repro.errors.InsufficientFundsError`.

**The path arena.**  Set-up compiles tens of thousands of paths before the
first payment moves, so :meth:`PathTable.compile_many` is a batch kernel,
not a loop: it flattens every new path of the given path sets, validates
all of them with array operations against the network's
:class:`~repro.network.network.DirectionIndex` (one ``searchsorted`` over
the sorted directed-edge keys answers "channel exists" and "which
direction" for every hop at once) and lays their hops out in one
:class:`_PathArena` — a flat ``dirs`` column plus the ``hop_ptr`` row
boundaries.  What the rest of the engine holds are views of it:

* a :class:`CompiledPath` keeps ``dirs`` as a slice of the arena column
  and ``dir_list`` as a slice of the one Python tuple the column converts
  to (its ints drawn from the index's ``int_pool``, so every path shares
  one object per direction id); it owns no fee schedule —
  :meth:`CompiledPath.hop_amounts` reads the network-wide per-direction
  fee lists through ``dir_list``;
* a :class:`_ProbeCache` over paths that sit on consecutive arena rows
  (every pair the dispatch layer primes) takes ``dirs`` and ``offsets``
  as arena slices — no per-pair ``concatenate``/``cumsum``.

:meth:`PathTable.compile` stays the one-path entry for ad-hoc paths (LND
attempts, hop transport) and the arbiter of error type and text: a batch
with an invalid path re-runs its first offender through it and registers
nothing.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ChannelError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import DirectionIndex, PaymentNetwork

__all__ = ["CompiledPath", "PathLock", "PathTable", "int_node_array"]

Path = Tuple[int, ...]
_EPS = 1e-9
_MISSING = object()


def int_node_array(values: List[object]) -> Optional[np.ndarray]:
    """``values`` as an int64 array — ``None`` unless every one is a
    plain ``int`` that fits (the node ids the batch kernels can rank with
    ``searchsorted``; anything else resolves through the dictionaries)."""
    if set(map(type, values)) != {int}:
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


class _PathArena:
    """The hops of one compiled batch as flat columns.

    Row ``r``'s hop direction ids are ``dirs[hop_ptr[r]:hop_ptr[r + 1]]``.
    Columns are written once and never resized, so the slices
    :class:`CompiledPath` and :class:`_ProbeCache` take of them stay valid
    for the life of the table.
    """

    __slots__ = ("dirs", "hop_ptr")

    def __init__(self, dirs: np.ndarray, hop_ptr: np.ndarray):
        self.dirs = dirs
        self.hop_ptr = hop_ptr


class CompiledPath:
    """One path flattened into store indices.

    ``dirs[i]`` is hop ``i``'s sender direction id in the store's flat
    views (its channel row is ``dirs[i] >> 1``) and ``dir_list`` the same
    ids as Python ints for per-hop forwarding loops (a side is ``d & 1``
    where one is still needed).  ``fees`` is the network's
    :class:`~repro.network.network.DirectionIndex`, whose per-direction
    lists hold the fee schedule *of hop i's channel* (the fee an upstream
    hop pays to route through it) at ``dir_list[i]``; ``fee_free`` flags
    the all-zero common case.  ``arena``/``row`` locate a batch-compiled
    path in its :class:`_PathArena` (``None`` for a path compiled alone).
    """

    __slots__ = (
        "nodes",
        "dirs",
        "dir_list",
        "fee_free",
        "fees",
        "arena",
        "row",
    )

    def __init__(
        self,
        nodes: Path,
        dirs: np.ndarray,
        dir_list: Tuple[int, ...],
        fee_free: bool,
        fees: "DirectionIndex",
        arena: Optional[_PathArena] = None,
        row: int = -1,
    ):
        self.nodes = nodes
        self.dirs = dirs
        self.dir_list = dir_list
        self.fee_free = fee_free
        self.fees = fees
        self.arena = arena
        self.row = row

    def __len__(self) -> int:
        """Number of hops."""
        return len(self.dir_list)

    def hop_amounts(self, amount: float) -> List[float]:
        """Per-hop lock amounts delivering ``amount``, fees included.

        The reverse fee recurrence over the fee schedules of this path's
        directions (``PaymentNetwork.hop_amounts`` compiles a node tuple
        and delegates here).  The session's send core
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


class PathLock:
    """A transfer locked through the node-tuple facade
    (:meth:`PathTable.lock_path`, ``PaymentNetwork.lock_path``).

    ``amounts`` (one per hop, ``len(lock)`` of them) is the list of floats
    :meth:`PathTable.settle` / :meth:`refund` hand straight to the store's
    per-hop kernels; ``resolved`` makes a second resolution raise.  The
    engine's own units carry the same two facts on their
    :class:`~repro.core.payments.TransactionUnit` record instead.
    """

    __slots__ = ("cpath", "amounts", "resolved")

    def __init__(self, cpath: CompiledPath, amounts: List[float]):
        self.cpath = cpath
        self.amounts = amounts
        self.resolved = False

    def __len__(self) -> int:
        return len(self.amounts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self.resolved else "pending"
        return f"PathLock(path={self.cpath.nodes!r}, {state})"


class _ProbeCache:
    """Memoised bottlenecks of one path set, fresh while ``as_of`` equals
    the store's ``version``.

    It is also the set's *handle*: ``cpaths`` are the set's compiled
    paths, so a caller holding it probes (:meth:`PathTable.bottleneck_many`
    takes it in place of the node tuples), locks and settles without
    re-resolving a node tuple.

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
        if arena is not None and all(
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


class PathTable:
    """Compiled-path index cache + vectorised path ops for one network.

    Owned lazily by :class:`~repro.network.network.PaymentNetwork`
    (``network.path_table``); the network's path API delegates here, and
    schemes reach the batch probe through
    :meth:`PaymentNetwork.bottleneck_many`.
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

        The hop fee schedules (``base_fee``/``fee_rate``) are the ones the
        network's :class:`~repro.network.network.DirectionIndex`
        snapshotted: like the edge set itself, fees are part of the static
        topology (§2) and must be configured before the first path is
        compiled.
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
        dir_list: List[int] = []
        direction = network.direction
        for u, v in zip(key, key[1:]):
            _, cid, side = direction(u, v)
            dir_list.append(2 * cid + side)
        fees = network.direction_index()
        compiled = CompiledPath(
            key,
            np.array(dir_list, dtype=np.intp),
            tuple(dir_list),
            not any(fees.base_fees[d] or fees.fee_rates[d] for d in dir_list),
            fees,
        )
        self._compiled[key] = compiled
        return compiled

    def compile_many(
        self, path_sets: Iterable[Sequence[Sequence[int]]]
    ) -> None:
        """Compile every path of an iterable of path sets, as one batch.

        Accepts :meth:`PersistentCache.paths_many
        <repro.engine.pathservice.PersistentCache.paths_many>` output
        directly, so discovery → compiled store-index arrays is one
        pipeline: ``table.compile_many(service.view(k).paths_many(pairs))``.

        Every not-yet-compiled path is flattened into one node array and
        checked there — known nodes, no revisit, a channel under every hop
        — against the network's
        :class:`~repro.network.network.DirectionIndex`; the batch's hops
        then become one :class:`_PathArena` whose rows the new
        :class:`CompiledPath` objects view.  All or nothing: if any path
        is invalid, the first offender in input order is handed to
        :meth:`compile`, which raises exactly what it raises for that path
        alone, and no path of the batch is registered.  Batches the index
        cannot resolve (non-integer node ids) compile path by path under
        the same rule.
        """
        compiled = self._compiled
        keys: List[Path] = [
            key
            for key in dict.fromkeys(map(tuple, chain.from_iterable(path_sets)))
            if key not in compiled
        ]
        if not keys:
            return
        index = self._network.direction_index()
        nodes = index.nodes
        flat = int_node_array(list(chain.from_iterable(keys)))
        if nodes is None or flat is None:
            try:
                for key in keys:
                    self.compile(key)
            except (ChannelError, TopologyError):
                for key in keys:
                    compiled.pop(key, None)
                raise
            return
        n = len(nodes)
        lengths = np.array([len(key) for key in keys])
        path_of_node = np.repeat(np.arange(len(keys)), lengths)
        rank = np.minimum(np.searchsorted(nodes, flat), n - 1)
        known = nodes[rank] == flat
        # A revisit is a repeated (path, node) visit: adjacent once sorted.
        visits = path_of_node * n + rank
        visits.sort()
        revisit = visits[1:] == visits[:-1]
        # Hop i -> i + 1 wherever both nodes belong to the same path.
        heads = np.flatnonzero(path_of_node[1:] == path_of_node[:-1])
        hop_keys = rank[heads] * n + rank[heads + 1]
        slot = np.minimum(
            np.searchsorted(index.keys, hop_keys), len(index.keys) - 1
        )
        found = index.keys[slot] == hop_keys
        offenders = np.concatenate(
            (
                np.flatnonzero(lengths == 0)[:1],
                path_of_node[~known][:1],
                visits[1:][revisit][:1] // n,
                path_of_node[heads[~found][:1]],
            )
        )
        if offenders.size:
            self.compile(keys[int(offenders.min())])  # raises
            raise AssertionError("compile() accepted a path the batch rejected")
        dirs = index.dirs[slot]
        dirs.setflags(write=False)
        hop_ptr = np.concatenate(([0], np.cumsum(np.maximum(lengths - 1, 0))))
        arena = _PathArena(dirs, hop_ptr)
        bearing = np.concatenate(([0], np.cumsum(index.fee_bearing[dirs])))
        fee_free = (bearing[hop_ptr[1:]] == bearing[hop_ptr[:-1]]).tolist()
        dir_list = tuple(map(index.int_pool.__getitem__, dirs.tolist()))
        ptr = hop_ptr.tolist()
        for row, (key, start, end, free) in enumerate(
            zip(keys, ptr, ptr[1:], fee_free)
        ):
            compiled[key] = CompiledPath(
                key,
                dirs[start:end],
                dir_list[start:end],
                free,
                index,
                arena,
                row,
            )

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def bottleneck(self, path: Union[Sequence[int], CompiledPath]) -> float:
        """Minimum directional availability along ``path`` (a node
        sequence or an already compiled path).

        A raw hop minimum: on a fee-bearing path the upstream hops must
        also carry the downstream fees, so less than this can be delivered
        (see :meth:`deliverable`)."""
        cpath = path if isinstance(path, CompiledPath) else self.compile(path)
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

    def _probe_for(
        self, paths: Sequence[Sequence[int]]
    ) -> Optional[_ProbeCache]:
        """The path set's probe cache; ``None`` for degenerate sets
        (a single-node path has no hops to concatenate — the caller falls
        back to per-path probes, which return ``inf`` for it)."""
        try:
            key = tuple(paths)
            probe = self._probes.get(key, _MISSING)
        except TypeError:  # unhashable path elements (lists)
            key = tuple(tuple(p) for p in paths)
            probe = self._probes.get(key, _MISSING)
        if probe is _MISSING:
            lookup = self._compiled.get
            cpaths = [lookup(p) or self.compile(p) for p in key]
            probe = _ProbeCache(cpaths) if all(len(c) for c in cpaths) else None
            self._probes[key] = probe
        return probe

    def probe_handle(
        self, paths: Sequence[Sequence[int]]
    ) -> Optional[_ProbeCache]:
        """The path set's memoised probe cache (``None`` for degenerate
        sets containing a hopless single-node path).

        The dispatch plan holds these handles per pair, so a scheme's
        ``attempt`` probes (:meth:`bottleneck_many`) and locks on the
        compiled paths without re-keying the set on every attempt.
        """
        return self._probe_for(paths)

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
        store version) are skipped; duplicate handles refresh once.  No
        engine path calls it; it stays while the end-to-end benchmark's
        span list wraps it by name.
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

    def bottleneck_many(
        self,
        paths: Union[Sequence[Sequence[int]], _ProbeCache],
    ) -> List[float]:
        """Bottlenecks of a whole path set in one vectorised pass.

        ``paths`` is the set's node sequences or its handle (what
        :meth:`probe_handle` returns), which skips keying the set by its
        node tuples.  Results are memoised per path set: a probe is fresh
        exactly when its ``as_of`` equals the store's ``version``, and then
        the cached values come back with no array work at all; otherwise
        the whole set re-gathers once.  Returns a fresh list of floats:
        raw hop minima, without fees (:meth:`deliverable` prices those in
        for one path).
        """
        if type(paths) is _ProbeCache:
            probe: Optional[_ProbeCache] = paths
        else:
            probe = self._probe_for(paths)
            if probe is None:  # degenerate set: per-path probes (inf for 1-node)
                return [self.bottleneck(p) for p in paths]
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
    # Lock / settle / refund
    # ------------------------------------------------------------------
    def lock_path(
        self, path: Sequence[int], amounts: Sequence[float]
    ) -> PathLock:
        """Atomically lock ``amounts[i]`` on hop ``i``; returns the lock.

        All-or-nothing: a frozen or under-funded hop raises
        :class:`~repro.errors.InsufficientFundsError` and the store is left
        exactly as a per-hop lock-then-rollback loop leaves it (see
        :meth:`ChannelStateStore.lock_path_funds`).
        """
        cpath = self.compile(path)
        return PathLock(cpath, self.lock_funds(cpath, amounts))

    def lock_funds(
        self, cpath: CompiledPath, amounts: Sequence[float]
    ) -> List[float]:
        """:meth:`lock_path` on an already compiled path, returning the
        per-hop actual amounts instead of a :class:`PathLock` — the same
        checks (a hop to lock on, one positive finite amount per hop, all
        validated before the store is written) and the same
        all-or-nothing store lock."""
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

    def settle(self, lock: PathLock) -> None:
        """Settle every hop of ``lock`` (one per-hop store write)."""
        self._resolve(lock, settle=True)

    def refund(self, lock: PathLock) -> None:
        """Refund every hop of ``lock`` (one per-hop store write)."""
        self._resolve(lock, settle=False)

    def _resolve(self, lock: PathLock, settle: bool) -> None:
        if lock.resolved:
            raise ChannelError(
                f"path lock on {lock.cpath.nodes!r} was already resolved"
            )
        lock.resolved = True
        if settle:
            self._store.settle_path_funds(lock.cpath.dir_list, lock.amounts)
        else:
            self._store.refund_path_funds(lock.cpath.dir_list, lock.amounts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathTable(paths={len(self._compiled)}, "
            f"probe_sets={len(self._probes)})"
        )
