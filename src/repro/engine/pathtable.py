"""Compiled path operations over the flat channel-state store.

Every routing scheme in the paper reduces to the same four operations,
executed thousands of times per simulated second: probe a path's
bottleneck, price its hops, lock funds along it, and settle or refund the
lock.  The seed implemented all four as Python loops over
``PaymentNetwork`` dictionaries and per-hop ``Htlc`` objects — at 10k-node
scale those loops dominate wall time (event dispatch is ~5 % of the
hop-by-hop bench).

:class:`PathTable` compiles each candidate path **once** into a flat
array of hop direction ids (``d = 2·cid + side``, the store's one hop
address — see :class:`~repro.engine.store.ChannelStateStore`), after
which:

* :meth:`bottleneck` is a fancy-indexed gather + masked min (frozen
  channels fold into the mask);
* :meth:`bottleneck_many` probes a whole path set in one
  ``np.minimum.reduceat`` — and memoises the result per path set,
  refreshing only the paths whose channels were stamped by the store since
  the last probe;
* :meth:`hop_amounts` short-circuits fee-free paths (the paper's setting)
  and otherwise runs the reverse fee recurrence over precompiled fee
  schedules;
* :meth:`lock_path` / :meth:`settle` / :meth:`refund` are masked
  scatter-adds with all-or-nothing semantics, returning a
  :class:`PathLock` instead of per-hop HTLC objects.

All operations are float-for-float identical to the scalar loops they
replace (pinned by ``tests/engine/test_pathtable.py``), including the
partial-lock rollback side effects on a mid-path
:class:`~repro.errors.InsufficientFundsError`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChannelError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import PaymentNetwork

__all__ = ["CompiledPath", "HopLock", "PathLock", "PathTable"]

Path = Tuple[int, ...]
_EPS = 1e-9
#: Below this many total hops a stale probe just re-gathers: the per-path
#: staleness bookkeeping costs more than the full vectorised recompute.
_INCREMENTAL_MIN_HOPS = 64
_MISSING = object()


class CompiledPath:
    """One path flattened into store indices and fee schedules.

    ``dirs[i]`` is hop ``i``'s sender direction id in the store's flat
    views and ``cids[i]`` its channel row; ``dir_list`` keeps ``dirs`` as
    Python ints for per-hop forwarding loops (a side is ``d & 1`` where one
    is still needed).  ``base_fees[i]``/``fee_rates[i]`` are the fee
    schedule *of hop i's channel* (the fee an upstream hop pays to route
    through it); ``fee_free`` flags the all-zero common case.
    """

    __slots__ = (
        "nodes",
        "cids",
        "dirs",
        "dir_list",
        "base_fees",
        "fee_rates",
        "fee_free",
    )

    def __init__(
        self,
        nodes: Path,
        dir_list: List[int],
        base_fees: List[float],
        fee_rates: List[float],
    ):
        self.nodes = nodes
        self.dirs = np.array(dir_list, dtype=np.intp)
        self.cids = self.dirs >> 1
        self.dir_list = dir_list
        self.base_fees = base_fees
        self.fee_rates = fee_rates
        self.fee_free = not any(base_fees) and not any(fee_rates)

    def __len__(self) -> int:
        """Number of hops."""
        return len(self.dir_list)

    def hop_amounts(self, amount: float) -> List[float]:
        """Per-hop lock amounts delivering ``amount``, fees included.

        The reverse fee recurrence over this path's compiled schedule,
        float-for-float identical to ``PaymentNetwork.hop_amounts`` /
        ``PathTable.hop_amounts`` (both delegate here).  The dispatch
        layer calls this directly to price staged sends without a path
        re-compile.
        """
        hops = len(self.dir_list)
        if hops == 0:
            return []
        if self.fee_free:
            return [amount] * hops
        amounts = [0.0] * hops
        amounts[-1] = amount
        base_fees = self.base_fees
        fee_rates = self.fee_rates
        for i in range(hops - 2, -1, -1):
            downstream = amounts[i + 1]
            # forwarding_fee() of the downstream channel, inlined.
            fee = (
                base_fees[i + 1] + fee_rates[i + 1] * downstream
                if downstream > 0
                else 0.0
            )
            amounts[i] = downstream + fee
        return amounts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledPath(nodes={self.nodes!r})"


class HopLock:
    """One hop's share of a :class:`PathLock` (duck-types ``Htlc.amount``)."""

    __slots__ = ("amount",)

    def __init__(self, amount: float):
        self.amount = amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HopLock(amount={self.amount:.6g})"


class PathLock:
    """A vectorised in-flight transfer: one record for the whole path.

    Replaces the per-hop ``Htlc`` list the scalar ``lock_path`` returns.
    Sequence access (``lock[j].amount``, ``len(lock)``) is preserved for
    consumers like the incentives collector; the amounts themselves live in
    one float64 array that :meth:`PathTable.settle` / :meth:`refund`
    scatter straight into the store.
    """

    __slots__ = ("cpath", "amounts", "resolved")

    def __init__(self, cpath: CompiledPath, amounts: np.ndarray):
        self.cpath = cpath
        self.amounts = amounts
        self.resolved = False

    def __len__(self) -> int:
        return len(self.amounts)

    def __getitem__(self, index: int) -> HopLock:
        return HopLock(float(self.amounts[index]))

    def __iter__(self) -> Iterator[HopLock]:
        return (HopLock(a) for a in self.amounts.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self.resolved else "pending"
        return f"PathLock(path={self.cpath.nodes!r}, {state})"


class _ProbeCache:
    """Memoised bottlenecks of one path set, refreshed incrementally."""

    __slots__ = (
        "cpaths",
        "cids",
        "dirs",
        "offsets",
        "bounds",
        "values",
        "values_list",
        "as_of",
    )

    def __init__(self, cpaths: List[CompiledPath]):
        self.cpaths = cpaths
        hop_counts = [len(c) for c in cpaths]
        self.cids = np.concatenate([c.cids for c in cpaths])
        self.dirs = np.concatenate([c.dirs for c in cpaths])
        ends = np.cumsum(hop_counts)
        self.offsets = np.concatenate(([0], ends[:-1]))
        self.bounds = list(zip(self.offsets.tolist(), ends.tolist()))
        self.values: Optional[np.ndarray] = None
        self.values_list: List[float] = []
        self.as_of = -1


class PathTable:
    """Compiled-path index cache + vectorised path ops for one network.

    Owned lazily by :class:`~repro.network.network.PaymentNetwork`
    (``network.path_table``); the network's scalar path API delegates here,
    and schemes reach the batch probe through
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
        """Compile (and memoise) ``path`` into flat store indices.

        Validation matches ``PaymentNetwork._validate_path`` — empty paths
        and revisits raise :class:`~repro.errors.ChannelError`, unknown
        nodes/channels :class:`~repro.errors.TopologyError` — but runs
        once per distinct path instead of on every operation.

        The hop fee schedules (``base_fee``/``fee_rate``) are snapshotted
        at compile time: like the edge set itself, fees are part of the
        static topology (§2) and must be configured before the first path
        operation touches the channel.
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
        base_fees: List[float] = []
        fee_rates: List[float] = []
        direction = network.direction
        for u, v in zip(key, key[1:]):
            channel, cid, side = direction(u, v)
            dir_list.append(2 * cid + side)
            base_fees.append(channel.base_fee)
            fee_rates.append(channel.fee_rate)
        compiled = CompiledPath(key, dir_list, base_fees, fee_rates)
        self._compiled[key] = compiled
        return compiled

    def compile_many(
        self, path_sets: Iterable[Sequence[Sequence[int]]]
    ) -> None:
        """Compile every path of an iterable of path sets.

        Accepts :meth:`PathService.paths_many
        <repro.engine.pathservice.PathService.paths_many>` output
        directly, so discovery → compiled store-index arrays is one
        pipeline: ``table.compile_many(service.paths_many(pairs))``.
        """
        for paths in path_sets:
            for path in paths:
                self.compile(path)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def bottleneck(self, path: Sequence[int]) -> float:
        """Minimum directional availability along ``path``."""
        cpath = (
            self._compiled.get(path) if type(path) is tuple else None
        ) or self.compile(path)
        if not cpath.dir_list:
            return math.inf
        values = self._store.availability(cpath.dirs)
        return float(values.min())

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
            cpaths = [self.compile(p) for p in key]
            probe = _ProbeCache(cpaths) if all(len(c) for c in cpaths) else None
            self._probes[key] = probe
        return probe

    def probe_handle(
        self, paths: Sequence[Sequence[int]]
    ) -> Optional[_ProbeCache]:
        """The path set's memoised probe cache (``None`` for degenerate
        sets containing a hopless single-node path).

        The dispatch layer holds these handles to batch-refresh many path
        sets at once (:meth:`refresh_probes`) and to read the compiled
        paths/refreshed bottleneck values without re-keying the set on
        every cohort.
        """
        return self._probe_for(paths)

    def invalidate_probes(self) -> None:
        """Drop every memoised probe value, forcing full regathers.

        The stamp-freshness protocol is exact *within one process*: every
        store mutation bumps the per-process ``version`` counter and
        stamps the touched rows with it.  Once the store is shared across
        processes (:meth:`ChannelStateStore.share
        <repro.engine.store.ChannelStateStore.share>`), a peer's writes
        land in the shared arrays without bumping *this* process's
        counter — and because peers run their own counters, a peer's
        stamps need not exceed a local probe's ``as_of`` even when the
        row changed.  The sharding driver therefore calls this at every
        epoch barrier, in every lane: ``as_of`` drops to ``-1`` and the
        cached values are discarded, so the next probe regathers from the
        live arrays.  Semantically neutral in single-process runs (the
        regather recomputes the identical values), which is exactly why
        the serial parity baseline can run the same call unconditionally.
        """
        for probe in self._probes.values():
            if probe is None:  # degenerate set: nothing memoised
                continue
            probe.values = None
            probe.values_list = []
            probe.as_of = -1

    def refresh_probes(self, probes: Sequence[_ProbeCache]) -> None:
        """Refresh a batch of probe caches with one concatenated gather.

        The macro-tick cohort probe: instead of one ``availability``
        gather + ``minimum.reduceat`` per path set, every stale probe's
        hop indices concatenate into a single gather and a single reduceat
        whose segment boundaries are each probe's offsets rebased into the
        combined array.  Segment minima over identical hop values are
        bit-identical to the per-set computation, so a probe refreshed
        here returns exactly what :meth:`bottleneck_many` would have
        computed for it (the dispatch parity tests pin this end to end).
        Already-fresh probes (``as_of`` at the current store version) are
        skipped; duplicate handles refresh once.
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
        if len(todo) == 1:
            probe = todo[0]
            avail = store.availability(probe.dirs)
            probe.values = np.minimum.reduceat(avail, probe.offsets)
        else:
            avail = store.availability(
                np.concatenate([probe.dirs for probe in todo])
            )
            offset_parts: List[np.ndarray] = []
            base = 0
            for probe in todo:
                offset_parts.append(probe.offsets + base)
                base += probe.dirs.shape[0]
            values = np.minimum.reduceat(avail, np.concatenate(offset_parts))
            pos = 0
            for probe in todo:
                count = len(probe.bounds)
                probe.values = values[pos : pos + count].copy()
                pos += count
        for probe in todo:
            probe.values_list = probe.values.tolist()
            probe.as_of = version

    def bottleneck_many(
        self, paths: Sequence[Sequence[int]], refresh: bool = False
    ) -> List[float]:
        """Bottlenecks of a whole path set in one vectorised pass.

        Results are memoised per path set: when the store version is
        unchanged the cached values come back with no array work at all,
        and a stale large probe recomputes only the paths containing a
        channel the store stamped since the last call (small probes just
        re-gather — the bookkeeping would cost more than the gather).
        ``refresh=True`` forces a full recompute (the microbenchmark uses
        it to time the gather itself).  Returns a fresh list of floats.
        """
        probe = self._probe_for(paths)
        if probe is None:  # degenerate set: per-path probes (inf for 1-node)
            return [self.bottleneck(p) for p in paths]
        store = self._store
        version = store.version
        if probe.values is not None and not refresh:
            if probe.as_of == version:
                return probe.values_list.copy()
            if probe.cids.shape[0] >= _INCREMENTAL_MIN_HOPS:
                changed = store.stamp[probe.cids] > probe.as_of
                if not changed.any():
                    probe.as_of = version
                    return probe.values_list.copy()
                if not changed.all():
                    values = probe.values
                    for index in np.flatnonzero(
                        np.logical_or.reduceat(changed, probe.offsets)
                    ).tolist():
                        start, end = probe.bounds[index]
                        values[index] = store.availability(
                            probe.dirs[start:end]
                        ).min()
                    probe.as_of = version
                    probe.values_list = values.tolist()
                    return probe.values_list.copy()
        avail = store.availability(probe.dirs)
        probe.values = np.minimum.reduceat(avail, probe.offsets)
        probe.values_list = probe.values.tolist()
        probe.as_of = version
        return probe.values_list.copy()

    def availabilities(self, path: Sequence[int]) -> np.ndarray:
        """Per-hop spendable funds along ``path`` (0 where frozen)."""
        cpath = self.compile(path)
        return self._store.availability(cpath.dirs)

    def unfunded_hop(
        self, path: Sequence[int], amounts: Sequence[float]
    ) -> Optional[int]:
        """Index of the first hop whose availability misses its lock amount.

        The quantity LND's onion error reports; ``None`` when every hop is
        funded.
        """
        avail = self.availabilities(path)
        short = avail + _EPS < np.asarray(amounts)
        if not short.any():
            return None
        return int(np.argmax(short))

    # ------------------------------------------------------------------
    # Fees
    # ------------------------------------------------------------------
    def hop_amounts(self, path: Sequence[int], amount: float) -> List[float]:
        """Per-hop lock amounts delivering ``amount``, fees included.

        Matches ``PaymentNetwork.hop_amounts`` float for float: the
        fee-free fast path performs no arithmetic at all, and fee-bearing
        paths run the identical reverse recurrence over the compiled fee
        schedule (no channel-object lookups).
        """
        return self.compile(path).hop_amounts(amount)

    # ------------------------------------------------------------------
    # Lock / settle / refund
    # ------------------------------------------------------------------
    def lock_path(
        self, path: Sequence[int], amounts: Sequence[float]
    ) -> PathLock:
        """Atomically lock ``amounts[i]`` on hop ``i``; returns the lock.

        All-or-nothing: a frozen or under-funded hop raises
        :class:`~repro.errors.InsufficientFundsError` and the store is left
        exactly as the scalar lock-then-rollback loop leaves it (see
        :meth:`ChannelStateStore.lock_path_funds`).
        """
        cpath = self.compile(path)
        hops = len(cpath.dir_list)
        if hops == 0:
            raise ChannelError(
                "cannot lock funds on a path with fewer than 2 nodes"
            )
        requested = np.asarray(amounts, dtype=np.float64)
        if requested.shape[0] != hops:
            raise ChannelError(
                f"path has {hops} hops but {requested.shape[0]} "
                "amounts were supplied"
            )
        if not (requested > 0).all() or not np.isfinite(requested).all():
            bad = int(np.argmin((requested > 0) & np.isfinite(requested)))
            raise ChannelError(
                f"lock amount must be positive and finite, got {amounts[bad]!r}"
            )
        actual = self._store.lock_path_funds(cpath.dirs, requested)
        return PathLock(cpath, actual)

    def settle(self, lock: PathLock) -> None:
        """Settle every hop of ``lock`` (single vectorised store write)."""
        self._resolve(lock, settle=True)

    def refund(self, lock: PathLock) -> None:
        """Refund every hop of ``lock`` (single vectorised store write)."""
        self._resolve(lock, settle=False)

    def _resolve(self, lock: PathLock, settle: bool) -> None:
        if lock.resolved:
            raise ChannelError(
                f"path lock on {lock.cpath.nodes!r} was already resolved"
            )
        lock.resolved = True
        if settle:
            self._store.settle_path_funds(lock.cpath.dirs, lock.amounts)
        else:
            self._store.refund_path_funds(lock.cpath.dirs, lock.amounts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathTable(paths={len(self._compiled)}, "
            f"probe_sets={len(self._probes)})"
        )
