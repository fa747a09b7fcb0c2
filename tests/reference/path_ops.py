"""Per-hop reference path operations over ``PaymentChannel`` objects.

The oracle for :class:`~repro.engine.pathtable.PathTable` (which
:class:`~repro.network.network.PaymentNetwork` routes every path operation
through): each operation walks the path one hop at a time through the
network's channel objects — ``available`` for probes,
``forwarding_fee`` for the fee recurrence, ``lock`` / ``settle`` /
``refund`` for the HTLC lifecycle — so results, store side effects and
exceptions come from the channel state machine alone.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.errors import ChannelError, InsufficientFundsError, TopologyError
from repro.network.htlc import Htlc
from repro.network.network import PaymentNetwork

__all__ = ["ReferencePathOps"]

Path = Sequence[int]

_EPS = 1e-9


class ReferencePathOps:
    """Path operations on ``network``, one channel object per hop."""

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
    ) -> List[Htlc]:
        """Lock every hop or none: a hop that cannot lock refunds the hops
        locked before it and re-raises."""
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
        htlcs: List[Htlc] = []
        try:
            for (a, b), hop_amount in zip(hops, amounts):
                htlcs.append(self.network.channel(a, b).lock(a, hop_amount))
        except InsufficientFundsError:
            for htlc, (a, b) in zip(htlcs, hops):
                self.network.channel(a, b).refund(htlc)
            raise
        return htlcs

    def settle_path(self, path: Path, htlcs: Sequence[Htlc]) -> None:
        """Settle every hop of a locked transfer."""
        for htlc, (a, b) in zip(htlcs, zip(path, path[1:])):
            self.network.channel(a, b).settle(htlc)

    def refund_path(self, path: Path, htlcs: Sequence[Htlc]) -> None:
        """Refund every hop of a locked transfer."""
        for htlc, (a, b) in zip(htlcs, zip(path, path[1:])):
            self.network.channel(a, b).refund(htlc)

