"""Bidirectional payment channels.

A payment channel escrows a fixed total amount of funds between two parties
(§2 of the paper).  At any instant the escrow is partitioned into:

* ``balance(u)`` — funds party ``u`` can spend right now,
* ``inflight(u)`` — funds ``u`` has committed to pending transfers that
  have not yet settled or been refunded (Fig. 3: "pending funds").

The invariant ``balance(u) + balance(v) + inflight(u) + inflight(v) ==
capacity`` holds at all times and is checked by
:meth:`PaymentChannel.check_invariant`.

The channel also tracks cumulative flow in each direction, which the metrics
layer uses to report imbalance, and which Spider's price updates (§5.3) use
to estimate rate imbalance.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Tuple

from repro.engine.store import ChannelStateStore
from repro.errors import ChannelError

__all__ = ["PaymentChannel"]

NodeId = Hashable


class PaymentChannel:
    """One bidirectional payment channel between ``node_a`` and ``node_b``.

    Parameters
    ----------
    node_a, node_b:
        Endpoint identifiers (any hashable; the topology layer uses ints).
    capacity:
        Total escrowed funds in the channel.
    balance_a:
        ``node_a``'s initial spendable balance.  Defaults to an even split,
        matching the paper's experiments ("equally split between the two
        parties", §6.2).
    store:
        The :class:`~repro.engine.store.ChannelStateStore` holding this
        channel's mutable state.  A network passes its shared store so all
        channels live in the same flat arrays; a standalone channel gets a
        private single-row store, so the view API is uniform either way.

    Notes
    -----
    The channel object itself is a *view*: balances, in-flight totals, flow
    counters and the frozen flag live in the store's NumPy arrays, indexed
    by ``channel_id``.  The view locks nothing itself: in-flight funds are
    moved only by the store's kernels, through the compiled-path lock
    (:meth:`PathTable.lock_funds
    <repro.engine.pathtable.PathTable.lock_funds>`) and the engine's
    transports, so funds are held in-flight during the confirmation delay,
    exactly as in §4.2: *"Funds received on a payment channel remain in a
    pending state until the final receiver provides the key for the hash
    lock."*
    """

    __slots__ = (
        "node_a",
        "node_b",
        "base_fee",
        "fee_rate",
        "_store",
        "_cid",
        "_side",
    )

    def __init__(
        self,
        node_a: NodeId,
        node_b: NodeId,
        capacity: float,
        balance_a: Optional[float] = None,
        base_fee: float = 0.0,
        fee_rate: float = 0.0,
        store: Optional[ChannelStateStore] = None,
    ):
        if node_a == node_b:
            raise ChannelError(f"channel endpoints must differ, got {node_a!r} twice")
        if capacity <= 0 or not math.isfinite(capacity):
            raise ChannelError(f"capacity must be positive and finite, got {capacity!r}")
        if balance_a is None:
            balance_a = capacity / 2.0
        if balance_a < 0 or balance_a > capacity:
            raise ChannelError(
                f"balance_a={balance_a!r} outside [0, capacity={capacity!r}]"
            )
        # ``not 0 <= fee < inf`` also catches NaN, which fails both sides.
        if not (0.0 <= base_fee < math.inf and 0.0 <= fee_rate < math.inf):
            raise ChannelError(
                "fees must be non-negative and finite, got "
                f"base_fee={base_fee!r}, fee_rate={fee_rate!r}"
            )
        self.node_a = node_a
        self.node_b = node_b
        self.base_fee = float(base_fee)
        self.fee_rate = float(fee_rate)
        self._store = store if store is not None else ChannelStateStore(reserve=1)
        self._cid = self._store.allocate(float(capacity), float(balance_a))
        self._side: Dict[NodeId, int] = {node_a: 0, node_b: 1}

    # ------------------------------------------------------------------
    # Store plumbing
    # ------------------------------------------------------------------
    @property
    def store(self) -> ChannelStateStore:
        """The state store backing this channel view."""
        return self._store

    @property
    def channel_id(self) -> int:
        """Row index of this channel in its store's arrays."""
        return self._cid

    def side(self, node: NodeId) -> int:
        """Store column (0 = ``node_a``, 1 = ``node_b``) for ``node``."""
        self._require_endpoint(node)
        return self._side[node]

    @property
    def capacity(self) -> float:
        """Total escrowed funds (grows when :meth:`deposit` adds collateral)."""
        return float(self._store.capacity[self._cid])

    @property
    def total_deposited(self) -> float:
        """Cumulative on-chain deposits made through :meth:`deposit`."""
        return float(self._store.total_deposited[self._cid])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> Tuple[NodeId, NodeId]:
        """The channel's two endpoints as given at construction."""
        return (self.node_a, self.node_b)

    def other(self, node: NodeId) -> NodeId:
        """The counterparty of ``node`` on this channel."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ChannelError(f"{node!r} is not an endpoint of {self!r}")

    def balance(self, node: NodeId) -> float:
        """Spendable funds currently held by ``node``."""
        self._require_endpoint(node)
        return float(self._store.balance[self._cid, self._side[node]])

    def inflight(self, node: NodeId) -> float:
        """Funds ``node`` has locked in pending transfers."""
        self._require_endpoint(node)
        return float(self._store.inflight[self._cid, self._side[node]])

    def available(self, sender: NodeId) -> float:
        """Funds ``sender`` can commit to a new transfer right now.

        This is the quantity routing schemes probe when they measure "path
        capacity": in-flight funds are excluded because they are unusable
        until settlement (§6.1).  A frozen channel (closing, or an offline
        endpoint — see :mod:`repro.network.faults`) accepts nothing.
        """
        if self._store.frozen_count and self._store.frozen[self._cid]:
            return 0.0
        return self.balance(sender)

    @property
    def frozen(self) -> bool:
        """Whether the channel currently rejects new locks.

        Pending transfers still resolve — a closing channel (or one with an
        offline endpoint) lets in-flight transfers finish or time out, it
        just accepts no new ones.  Freezing never moves funds, so all
        conservation invariants are unaffected.
        """
        return bool(self._store.frozen[self._cid])

    def freeze(self) -> None:
        """Stop accepting new locks (channel closure / endpoint outage)."""
        self._store.set_frozen(self._cid, True)

    def unfreeze(self) -> None:
        """Resume normal operation (endpoint back online)."""
        self._store.set_frozen(self._cid, False)

    def settled_flow(self, sender: NodeId) -> float:
        """Cumulative value settled in the ``sender →`` direction."""
        self._require_endpoint(sender)
        return float(self._store.settled_flow[self._cid, self._side[sender]])

    def attempted_flow(self, sender: NodeId) -> float:
        """Cumulative value locked (settled or not) in the ``sender →`` direction."""
        self._require_endpoint(sender)
        return float(self._store.sent[self._cid, self._side[sender]])

    def imbalance(self) -> float:
        """Absolute difference between the two spendable balances."""
        row = self._store.balance[self._cid]
        return abs(float(row[0]) - float(row[1]))

    def flow_imbalance(self) -> float:
        """|settled flow a→b − settled flow b→a|, the paper's rate-imbalance notion."""
        row = self._store.settled_flow[self._cid]
        return abs(float(row[0]) - float(row[1]))

    def forwarding_fee(self, amount: float) -> float:
        """Fee a router charges to forward ``amount`` over this channel.

        §2: intermediate nodes receive a routing fee.  The standard PCN fee
        schedule is affine: ``base_fee + fee_rate × amount``; both default
        to 0 so fee-free experiments match the paper's evaluation.
        """
        if amount <= 0:
            return 0.0
        return self.base_fee + self.fee_rate * amount

    def deposit(self, node: NodeId, amount: float) -> None:
        """Add fresh on-chain funds to ``node``'s side (§5.2.3 rebalancing).

        This models the ``b_(u,v)`` rebalancing rate: an on-chain transaction
        that increases both the node's balance and the channel capacity.
        """
        self._require_endpoint(node)
        if amount <= 0 or not math.isfinite(amount):
            raise ChannelError(f"deposit must be positive and finite, got {amount!r}")
        self._store.deposit(self._cid, self._side[node], amount)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariant(self, tolerance: float = 1e-6) -> None:
        """Assert conservation of escrowed funds; raises on violation."""
        store, cid = self._store, self._cid
        balances = store.balance[cid]
        inflight = store.inflight[cid]
        total = float(balances[0] + balances[1] + inflight[0] + inflight[1])
        if abs(total - self.capacity) > tolerance:
            raise ChannelError(
                f"conservation violated on ({self.node_a!r}, {self.node_b!r}): "
                f"parts sum to {total:.9g}, capacity is {self.capacity:.9g}"
            )
        for node in self.endpoints:
            side = self._side[node]
            if balances[side] < -tolerance or inflight[side] < -tolerance:
                raise ChannelError(
                    f"negative funds at {node!r}: balance={float(balances[side]):.9g}, "
                    f"inflight={float(inflight[side]):.9g}"
                )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_endpoint(self, node: NodeId) -> None:
        if node != self.node_a and node != self.node_b:
            raise ChannelError(
                f"{node!r} is not an endpoint of channel ({self.node_a!r}, {self.node_b!r})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        row = self._store.balance[self._cid]
        return (
            f"PaymentChannel({self.node_a!r}<->{self.node_b!r}, "
            f"cap={self.capacity:.6g}, "
            f"bal=({float(row[0]):.6g}, {float(row[1]):.6g}))"
        )
