"""Array-backed channel state.

The seed kept every channel's balances, in-flight totals and flow counters
in per-object Python dicts, so any whole-network question — total in-flight
value, imbalance statistics, a waterfilling pass over thousands of channels
— degenerated into a Python loop over objects.

:class:`ChannelStateStore` flips the layout: one store per network holds
all mutable per-channel state in flat NumPy arrays indexed by channel id
(rows) and endpoint side (columns, 0 = ``node_a``, 1 = ``node_b``).  The
batched path kernels address one hop by a single integer, its *direction
id* ``d = 2·cid + side``, through 1-D views of the same memory (see
:class:`ChannelStateStore`).
:class:`~repro.network.channel.PaymentChannel` and
:class:`~repro.network.network.PaymentNetwork` are thin views over these
arrays, so routers, the fluid solvers, and metrics collectors can read the
same memory without copies — and aggregate queries vectorise.

Arrays grow by amortised doubling; the public ``*_view`` properties always
return views trimmed to the allocated channel count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChannelError, InsufficientFundsError

__all__ = ["ChannelStateStore"]

_INITIAL_CAPACITY = 16
_LOCK_EPS = 1e-9

class ChannelStateStore:
    """Flat per-channel state arrays shared by every channel view.

    Direction convention: column 0 is the channel's ``node_a``, column 1
    its ``node_b``, and the hop "``side`` sends on ``cid``" is the one
    integer ``d = 2·cid + side`` — the position of ``[cid, side]`` in the
    row-major ``(n, 2)`` arrays.  ``balance_flat`` / ``inflight_flat`` /
    ``sent_flat`` / ``settled_flow_flat`` are 1-D views of those arrays
    indexed by ``d``; the receiving direction of a hop is ``d ^ 1`` and
    its channel row (``stamp``, ``frozen``, the settle/refund counters)
    ``d >> 1``.  Every path kernel below takes ``dirs``;
    ``store.balance[cid, side]`` readers see the same memory.  All values
    are float64 except the settle/refund counters (int64), the queue
    depths (int64) and the frozen flags (bool).

    Every mutation that can change a channel's *availability* (balance or
    frozen flag) stamps the channel with a monotonically increasing
    ``version`` counter.  :class:`~repro.engine.pathtable.PathTable` probe
    caches compare their snapshot version against ``stamp`` to refresh only
    the paths whose channels actually changed since the last probe.
    """

    __slots__ = (
        "_n",
        "balance",
        "inflight",
        "sent",
        "settled_flow",
        "queue_depth",
        "capacity",
        "total_deposited",
        "num_settled",
        "num_refunded",
        "frozen",
        "frozen_count",
        "stamp",
        "version",
        "balance_flat",
        "inflight_flat",
        "sent_flat",
        "settled_flow_flat",
    )

    def __init__(self, reserve: int = _INITIAL_CAPACITY):
        reserve = max(1, int(reserve))
        self._n = 0
        self.balance = np.zeros((reserve, 2), dtype=np.float64)
        self.inflight = np.zeros((reserve, 2), dtype=np.float64)
        self.sent = np.zeros((reserve, 2), dtype=np.float64)
        self.settled_flow = np.zeros((reserve, 2), dtype=np.float64)
        self.queue_depth = np.zeros((reserve, 2), dtype=np.int64)
        self.capacity = np.zeros(reserve, dtype=np.float64)
        self.total_deposited = np.zeros(reserve, dtype=np.float64)
        self.num_settled = np.zeros(reserve, dtype=np.int64)
        self.num_refunded = np.zeros(reserve, dtype=np.int64)
        self.frozen = np.zeros(reserve, dtype=bool)
        self.frozen_count = 0
        self.stamp = np.zeros(reserve, dtype=np.int64)
        self.version = 0
        self._bind_flat()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of allocated channels."""
        return self._n

    def allocate(self, capacity: float, balance_a: float) -> int:
        """Allocate a row for a new channel; returns its channel id."""
        cid = self._n
        if cid == self.capacity.shape[0]:
            self._grow()
        self._n = cid + 1
        self.capacity[cid] = capacity
        self.balance[cid, 0] = balance_a
        self.balance[cid, 1] = capacity - balance_a
        return cid

    def _grow(self) -> None:
        new = max(2 * self.capacity.shape[0], _INITIAL_CAPACITY)

        def widen(arr: np.ndarray) -> np.ndarray:
            shape = (new,) + arr.shape[1:]
            wider = np.zeros(shape, dtype=arr.dtype)
            wider[: arr.shape[0]] = arr
            return wider

        self.balance = widen(self.balance)
        self.inflight = widen(self.inflight)
        self.sent = widen(self.sent)
        self.settled_flow = widen(self.settled_flow)
        self.queue_depth = widen(self.queue_depth)
        self.capacity = widen(self.capacity)
        self.total_deposited = widen(self.total_deposited)
        self.num_settled = widen(self.num_settled)
        self.num_refunded = widen(self.num_refunded)
        self.frozen = widen(self.frozen)
        self.stamp = widen(self.stamp)
        self._bind_flat()

    def _bind_flat(self) -> None:
        """Re-derive the direction-indexed views; call after every
        re-binding of the ``(n, 2)`` arrays (a stale view would keep
        writing the old memory)."""
        self.balance_flat = self.balance.reshape(-1)
        self.inflight_flat = self.inflight.reshape(-1)
        self.sent_flat = self.sent.reshape(-1)
        self.settled_flow_flat = self.settled_flow.reshape(-1)

    # ------------------------------------------------------------------
    # Trimmed views (always sized to the allocated channel count)
    # ------------------------------------------------------------------
    @property
    def balance_view(self) -> np.ndarray:
        """``(n, 2)`` spendable balances."""
        return self.balance[: self._n]

    @property
    def inflight_view(self) -> np.ndarray:
        """``(n, 2)`` funds locked in pending transfers."""
        return self.inflight[: self._n]

    @property
    def sent_view(self) -> np.ndarray:
        """``(n, 2)`` cumulative value locked per direction."""
        return self.sent[: self._n]

    @property
    def settled_flow_view(self) -> np.ndarray:
        """``(n, 2)`` cumulative value settled per direction."""
        return self.settled_flow[: self._n]

    @property
    def queue_depth_view(self) -> np.ndarray:
        """``(n, 2)`` router queue depths per direction (hop-by-hop mode)."""
        return self.queue_depth[: self._n]

    @property
    def capacity_view(self) -> np.ndarray:
        """``(n,)`` total escrowed funds per channel."""
        return self.capacity[: self._n]

    @property
    def frozen_view(self) -> np.ndarray:
        """``(n,)`` flags for channels currently rejecting new locks."""
        return self.frozen[: self._n]

    # ------------------------------------------------------------------
    # Vectorised aggregates
    # ------------------------------------------------------------------
    def total_funds(self) -> float:
        """Sum of all channel capacities."""
        return float(self.capacity_view.sum())

    def total_inflight(self) -> float:
        """Funds locked in pending transfers across every channel."""
        return float(self.inflight_view.sum())

    def total_queued(self) -> int:
        """Units currently parked in router queues, network-wide.

        Nonzero only while a hop-by-hop transport is running: the
        transport increments/decrements ``queue_depth`` on every enqueue,
        service and timeout.
        """
        return int(self.queue_depth_view.sum())

    def max_queue_depth(self) -> int:
        """Deepest per-direction router queue right now."""
        if self._n == 0:
            return 0
        return int(self.queue_depth_view.max())

    def imbalances(self) -> np.ndarray:
        """``(n,)`` per-channel ``|balance_a − balance_b|``."""
        view = self.balance_view
        return np.abs(view[:, 0] - view[:, 1])

    def flow_imbalances(self) -> np.ndarray:
        """``(n,)`` per-channel ``|settled a→b − settled b→a|``."""
        view = self.settled_flow_view
        return np.abs(view[:, 0] - view[:, 1])

    def check_conservation(self, tolerance: float = 1e-6) -> Optional[int]:
        """Vectorised fund-conservation check over every channel.

        Returns ``None`` when every channel satisfies ``balances + inflight
        == capacity`` (within ``tolerance``) with no negative parts, else
        the id of the first violating channel.
        """
        n = self._n
        if n == 0:
            return None
        totals = self.balance_view.sum(axis=1) + self.inflight_view.sum(axis=1)
        bad = np.abs(totals - self.capacity_view) > tolerance
        bad |= (self.balance_view < -tolerance).any(axis=1)
        bad |= (self.inflight_view < -tolerance).any(axis=1)
        if not bad.any():
            return None
        return int(np.argmax(bad))

    def snapshot_balances(self) -> np.ndarray:
        """Copy of the ``(n, 2)`` balance matrix (a true snapshot)."""
        return self.balance_view.copy()

    # ------------------------------------------------------------------
    # Single-channel mutators
    # ------------------------------------------------------------------
    def touch(self, cid: int) -> None:
        """Stamp ``cid`` as modified (invalidates cached path probes)."""
        self.version = version = self.version + 1
        self.stamp[cid] = version

    def apply_refund(self, cid: int, sender_side: int, amount: float) -> None:
        """Resolve an in-flight transfer by returning it to the sender."""
        self.inflight[cid, sender_side] -= amount
        self.balance[cid, sender_side] += amount
        self.num_refunded[cid] += 1
        self.version = version = self.version + 1
        self.stamp[cid] = version

    def try_lock(self, d: int, amount: float) -> float:
        """Lock ``amount`` on direction ``d`` if spendable; else return -1.

        The one-hop lock of the hop-by-hop and backpressure transports:
        performs the frozen/balance check inline and returns the *actual*
        locked value (clamped to the spendable balance within the usual
        1e-9 tolerance) or ``-1.0`` on failure.
        """
        cid = d >> 1
        if self.frozen_count and self.frozen[cid]:
            return -1.0
        balance = float(self.balance_flat[d])
        if amount > balance + _LOCK_EPS:
            return -1.0
        actual = amount if amount <= balance else balance
        self.balance_flat[d] = balance - actual
        self.inflight_flat[d] += actual
        self.sent_flat[d] += actual
        self.version = version = self.version + 1
        self.stamp[cid] = version
        return actual

    def set_frozen(self, cid: int, flag: bool) -> None:
        """Freeze/unfreeze ``cid`` (stamped: availability changed).

        Maintains ``frozen_count`` so hot paths skip frozen checks
        entirely on an all-healthy network (the common case).  The flag
        must only be flipped through this method (or the channel view's
        ``freeze``/``unfreeze``) for the count to stay accurate.
        """
        flag = bool(flag)
        if flag != bool(self.frozen[cid]):
            self.frozen[cid] = flag
            self.frozen_count += 1 if flag else -1
        self.version = version = self.version + 1
        self.stamp[cid] = version

    def deposit(self, cid: int, side: int, amount: float) -> None:
        """Credit on-chain funds: grows the side's balance and the capacity."""
        self.balance[cid, side] += amount
        self.capacity[cid] += amount
        self.total_deposited[cid] += amount
        self.version = version = self.version + 1
        self.stamp[cid] = version

    # ------------------------------------------------------------------
    # Direction-indexed path kernels (PathTable's backing primitives).
    # Probes and the per-tick resolution batch are array kernels; the
    # per-unit lock/settle/refund kernels are loops over Python ints and
    # floats, because their calls carry a few hop rows each.
    # ------------------------------------------------------------------
    def availability(self, dirs: np.ndarray) -> np.ndarray:
        """Spendable funds per hop direction; 0 where frozen."""
        values = self.balance_flat[dirs]
        if self.frozen_count:
            values = np.where(self.frozen[dirs >> 1], 0.0, values)
        return values

    def lock_path_funds(
        self, dirs: Sequence[int], amounts: Sequence[float]
    ) -> List[float]:
        """Atomically lock ``amounts[i]`` on every hop direction ``dirs[i]``.

        Returns the per-hop *actual* locked amounts (each clamped to its
        hop's spendable balance within the 1e-9 tolerance, as
        :meth:`try_lock` clamps).  On a frozen or under-funded hop ``k``
        it raises :class:`~repro.errors.InsufficientFundsError` after
        rolling back hops ``0..k-1``: their balances round-trip through
        ``(b - a) + a``, their inflight through ``(i + a) - a``, their
        ``sent`` totals grow, and their refund counters tick —
        all-or-nothing for funds, but not traceless.

        A per-hop loop over Python ints and floats: paths are a few hops
        long, so NumPy's per-call overhead would be the whole cost.  A path
        is a trail, so its directions are unique and a hop's check never
        sees an earlier hop's write.
        """
        balance = self.balance_flat
        inflight = self.inflight_flat
        sent = self.sent_flat
        frozen = self.frozen if self.frozen_count else None
        actuals: List[float] = []
        for d, amount in zip(dirs, amounts):
            available = balance.item(d)
            if not amount <= available + _LOCK_EPS or (
                frozen is not None and frozen[d >> 1]
            ):
                self._roll_back(dirs, actuals)
                k = len(actuals)
                cid = d >> 1
                if self.frozen[cid]:
                    raise InsufficientFundsError(
                        f"channel {cid} is frozen (closing or endpoint offline)"
                    )
                raise InsufficientFundsError(
                    f"hop {k} has {available:.6g} spendable on channel {cid}, "
                    f"cannot lock {float(amount):.6g}"
                )
            actual = amount if amount <= available else available
            balance[d] = available - actual
            inflight[d] += actual
            sent[d] += actual
            actuals.append(actual)
        self.version = version = self.version + 1
        stamp = self.stamp
        for d in dirs:
            stamp[d >> 1] = version
        return actuals

    def _roll_back(self, dirs: Sequence[int], actuals: List[float]) -> None:
        """Refund the locked prefix of a failed :meth:`lock_path_funds`
        (one stamp for the prefix; none when nothing was locked)."""
        if not actuals:
            return
        balance = self.balance_flat
        inflight = self.inflight_flat
        num_refunded = self.num_refunded
        stamp = self.stamp
        self.version = version = self.version + 1
        for d, actual in zip(dirs, actuals):
            cid = d >> 1
            balance[d] += actual
            inflight[d] -= actual
            num_refunded[cid] += 1
            stamp[cid] = version

    def lock_many(self, dirs: Sequence[int], amounts: Sequence[float]) -> None:
        """Lock a verified batch of sends, one hop row at a time.

        Caller contract: every ``amounts[i]`` is the *pre-clamped actual*
        the all-or-nothing lock would have taken for that hop — at most the
        hop's balance after all earlier entries in the batch, with frozen
        hops never listed — so no clamping and no rollback path exist here,
        unlike :meth:`lock_path_funds`, which must reproduce the
        lock-then-rollback on failure.  Fee-bearing sends therefore pass
        their per-hop fee-inclusive amounts (one entry per hop), not a
        broadcast delivered amount.  Repeated directions (several units
        crossing the same hop) are applied in list order, matching the
        per-send lock sequence bit for bit.  One version bump covers the
        whole batch: probe caches only compare ``stamp > as_of``, so
        batch-granular stamping is indistinguishable from per-send
        stamping.  Batches are a few rows long, so a loop over Python ints
        and floats beats any NumPy call here.  No engine path calls it; it
        stays while the end-to-end benchmark's span list wraps it by name.
        """
        balance = self.balance_flat
        inflight = self.inflight_flat
        sent = self.sent_flat
        stamp = self.stamp
        self.version = version = self.version + 1
        for d, amount in zip(dirs, amounts):
            balance[d] -= amount
            inflight[d] += amount
            sent[d] += amount
            stamp[d >> 1] = version

    def settle_path_funds(
        self, dirs: Sequence[int], amounts: Sequence[float]
    ) -> None:
        """Settle a previously locked path: credit every receiving side."""
        balance = self.balance_flat
        inflight = self.inflight_flat
        settled_flow = self.settled_flow_flat
        num_settled = self.num_settled
        stamp = self.stamp
        self.version = version = self.version + 1
        for d, amount in zip(dirs, amounts):
            cid = d >> 1
            inflight[d] -= amount
            balance[d ^ 1] += amount
            settled_flow[d] += amount
            num_settled[cid] += 1
            stamp[cid] = version

    def refund_path_funds(
        self, dirs: Sequence[int], amounts: Sequence[float]
    ) -> None:
        """Refund a previously locked path: return funds to every sender."""
        balance = self.balance_flat
        inflight = self.inflight_flat
        num_refunded = self.num_refunded
        stamp = self.stamp
        self.version = version = self.version + 1
        for d, amount in zip(dirs, amounts):
            cid = d >> 1
            inflight[d] -= amount
            balance[d] += amount
            num_refunded[cid] += 1
            stamp[cid] = version

    def apply_resolution_batch(
        self, dirs: np.ndarray, amounts: np.ndarray, settled: np.ndarray
    ) -> None:
        """One coalesced store write for every unit resolving this tick.

        ``dirs`` are the hops' *sender* directions and ``settled`` flags
        which hops settle (crediting the receiver, ``d ^ 1``) rather than
        refund (crediting the sender, ``d``).  Uses unbuffered
        ``np.ufunc.at`` scatter-adds, which apply repeated indices in array
        order — so hops are listed in resolution order and the float sums
        match the sequential per-unit writes bit for bit.
        """
        cids = dirs >> 1
        np.subtract.at(self.inflight_flat, dirs, amounts)
        if settled.all():
            np.add.at(self.balance_flat, dirs ^ 1, amounts)
            np.add.at(self.settled_flow_flat, dirs, amounts)
            np.add.at(self.num_settled, cids, 1)
        else:
            np.add.at(self.balance_flat, dirs ^ settled, amounts)
            np.add.at(self.settled_flow_flat, dirs[settled], amounts[settled])
            np.add.at(self.num_settled, cids[settled], 1)
            np.add.at(self.num_refunded, cids[~settled], 1)
        self.version = version = self.version + 1
        self.stamp[cids] = version

    def describe(self, cid: int) -> Tuple[float, float, float, float, float]:
        """``(capacity, balance_a, balance_b, inflight_a, inflight_b)``."""
        if not 0 <= cid < self._n:
            raise ChannelError(f"unknown channel id {cid}")
        return (
            float(self.capacity[cid]),
            float(self.balance[cid, 0]),
            float(self.balance[cid, 1]),
            float(self.inflight[cid, 0]),
            float(self.inflight[cid, 1]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelStateStore(channels={self._n})"
