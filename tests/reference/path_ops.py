"""Per-hop reference path operations, written as plain store arithmetic.

The oracle for :class:`~repro.engine.pathtable.PathTable`'s compiled-path
kernels, and the path operations of the schemes' reference arms
(``tests/reference/schemes.py``): each operation walks the path one hop
at a time, looks the hop's ``(channel row, side)`` up by node pair, and
reads or writes that hop's cells of the store arrays directly —
``available`` for probes, ``forwarding_fee`` for the fee recurrence, and
its own balance / in-flight / ``sent`` / counter updates for lock, settle
and refund.  No store kernel and no compiled path is involved, so
results, store side effects and exceptions come from this file's per-hop
arithmetic alone.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import ChannelError, InsufficientFundsError, TopologyError
from repro.network.network import PaymentNetwork

__all__ = ["ReferenceHop", "ReferencePathOps"]

Path = Sequence[int]

_EPS = 1e-9


class ReferenceHop:
    """One locked hop: its store cell and the amount actually locked."""

    __slots__ = ("cid", "side", "amount")

    def __init__(self, cid: int, side: int, amount: float):
        self.cid = cid
        self.side = side
        self.amount = amount


class ReferencePathOps:
    """Path operations on ``network``, one store cell per hop."""

    def __init__(self, network: PaymentNetwork):
        self.network = network

    def validate(self, path: Path) -> None:
        """Raise what an invalid path raises: empty or revisiting paths a
        :class:`ChannelError`, unknown nodes or channels a
        :class:`TopologyError`."""
        network = self.network
        if not path:
            raise ChannelError("empty path")
        seen = set()
        for node in path:
            if not network.has_node(node):
                raise TopologyError(f"path mentions unknown node {node!r}")
            if node in seen:
                raise ChannelError(f"path revisits node {node!r} (paths must be trails)")
            seen.add(node)
        for a, b in zip(path, path[1:]):
            if not network.has_channel(a, b):
                raise TopologyError(f"path uses missing channel ({a!r}, {b!r})")

    def bottleneck(self, path: Path) -> float:
        """Minimum directional availability along ``path`` (``inf`` for a
        single node)."""
        self.validate(path)
        if len(path) < 2:
            return math.inf
        return min(self.network.available(a, b) for a, b in zip(path, path[1:]))

    def hop_amounts(self, path: Path, amount: float) -> List[float]:
        """Per-hop lock amounts delivering ``amount``: working back from
        the destination, each hop adds its downstream channel's fee."""
        self.validate(path)
        hops = list(zip(path, path[1:]))
        if not hops:
            return []
        amounts = [0.0] * len(hops)
        amounts[-1] = amount
        for i in range(len(hops) - 2, -1, -1):
            downstream = self.network.channel(*hops[i + 1])
            amounts[i] = amounts[i + 1] + downstream.forwarding_fee(amounts[i + 1])
        return amounts

    def unfunded_hop(self, path: Path, amounts: Sequence[float]) -> Optional[int]:
        """Index of the first hop, scanning from the source, whose
        availability misses its lock amount; ``None`` when all are funded."""
        self.validate(path)
        hops = zip(path, path[1:])
        for index, ((a, b), hop_amount) in enumerate(zip(hops, amounts)):
            if self.network.available(a, b) + _EPS < hop_amount:
                return index
        return None

    def lock_path(
        self, path: Path, amount: float, amounts: Optional[Sequence[float]] = None
    ) -> List[ReferenceHop]:
        """Lock every hop or none.

        Per hop: a frozen channel or a balance below the amount (beyond the
        1e-9 tolerance) refunds the hops locked before it, ticking each
        one's refund counter, and raises :class:`InsufficientFundsError`;
        otherwise the amount, clamped to the balance, moves from balance to
        in-flight and grows ``sent``.
        """
        self.validate(path)
        if len(path) < 2:
            raise ChannelError("cannot lock funds on a path with fewer than 2 nodes")
        hops = list(zip(path, path[1:]))
        if amounts is None:
            amounts = [amount] * len(hops)
        elif len(amounts) != len(hops):
            raise ChannelError(
                f"path has {len(hops)} hops but {len(amounts)} amounts were supplied"
            )
        for hop_amount in amounts:
            if not (hop_amount > 0 and math.isfinite(hop_amount)):
                raise ChannelError(
                    f"lock amount must be positive and finite, got {hop_amount!r}"
                )
        store = self.network.state_store
        locked: List[ReferenceHop] = []
        for (a, b), hop_amount in zip(hops, amounts):
            d = self.network.direction_id(a, b)
            cid, side = d >> 1, d & 1
            balance = float(store.balance[cid, side])
            if store.frozen[cid] or hop_amount > balance + _EPS:
                self._refund(locked)
                raise InsufficientFundsError(
                    f"{a!r} cannot lock {hop_amount:.6g} toward {b!r}"
                )
            actual = min(float(hop_amount), balance)
            store.balance[cid, side] = balance - actual
            store.inflight[cid, side] += actual
            store.sent[cid, side] += actual
            store.touch(cid)
            locked.append(ReferenceHop(cid, side, actual))
        return locked

    def send_unit(
        self,
        path: Path,
        amount: float,
        *,
        remaining: float,
        mtu: float,
        min_unit: float,
        max_fee: Optional[float] = None,
    ) -> Optional[Tuple[float, float, List[ReferenceHop]]]:
        """One transaction unit of a payment that has paid no fee yet:
        ``(delivered, fee, locked hops)``, or ``None`` when it is not sent.

        The offer is clamped to the payment's ``remaining`` value and the
        ``mtu``; below ``min_unit`` it is dust and nothing is written.  The
        hops carry the fee recurrence's amounts; a fee above ``max_fee``
        (1e-9 tolerance) vetoes the send with nothing written; otherwise
        the lock runs, and a short or frozen hop leaves its rollback behind
        (see :meth:`lock_path`).
        """
        amount = min(amount, remaining, mtu)
        if amount < min_unit:
            return None
        amounts = self.hop_amounts(path, amount)
        fee = amounts[0] - amount if amounts else 0.0
        if fee > 0 and max_fee is not None and fee > max_fee + _EPS:
            return None
        try:
            locked = self.lock_path(path, amount, amounts=amounts)
        except InsufficientFundsError:
            return None
        return amount, fee, locked

    def settle_path(self, path: Path, locked: Sequence[ReferenceHop]) -> None:
        """Settle every hop of a locked transfer: the receiver is credited."""
        store = self.network.state_store
        for hop in locked:
            cid, side = hop.cid, hop.side
            store.inflight[cid, side] -= hop.amount
            store.balance[cid, 1 - side] += hop.amount
            store.settled_flow[cid, side] += hop.amount
            store.num_settled[cid] += 1
            store.touch(cid)

    def refund_path(self, path: Path, locked: Sequence[ReferenceHop]) -> None:
        """Refund every hop of a locked transfer: the sender is re-credited."""
        self._refund(locked)

    def _refund(self, locked: Sequence[ReferenceHop]) -> None:
        store = self.network.state_store
        for hop in locked:
            cid, side = hop.cid, hop.side
            store.inflight[cid, side] -= hop.amount
            store.balance[cid, side] += hop.amount
            store.num_refunded[cid] += 1
            store.touch(cid)
