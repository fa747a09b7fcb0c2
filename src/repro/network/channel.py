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

A :class:`PaymentChannel` holds no state of its own: it is a ``(network,
cid)`` view of row ``cid`` of its network's columns (endpoints, fee
schedule) and of its state store (funds, flows, the frozen flag).  A
network makes a channel's view on first request and memoises it, so
``network.channel(0, 1) is network.channel(1, 0)``.  The fee setters
write the network's fee columns, and raise
:class:`~repro.errors.ChannelError` once the network has compiled paths
against them (see :meth:`PaymentNetwork.set_fees
<repro.network.network.PaymentNetwork.set_fees>`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, Optional, Tuple

from repro.engine.store import ChannelStateStore
from repro.errors import ChannelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import PaymentNetwork

__all__ = ["PaymentChannel"]

NodeId = Hashable


class PaymentChannel:
    """One bidirectional payment channel between ``node_a`` and ``node_b``.

    Constructed directly, it is the only channel of a private
    :class:`~repro.network.network.PaymentNetwork` (with its own
    single-row store), so the view API is uniform either way; inside a
    network, :meth:`PaymentNetwork.add_channel
    <repro.network.network.PaymentNetwork.add_channel>` and
    :meth:`PaymentNetwork.channel
    <repro.network.network.PaymentNetwork.channel>` hand out views.

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
    base_fee, fee_rate:
        The affine forwarding-fee schedule (§2), fee-free by default.

    Notes
    -----
    The channel object is a *view*: balances, in-flight totals, flow
    counters and the frozen flag live in the store's NumPy arrays, the
    endpoints and fees in the network's columns, all indexed by
    ``channel_id``.  The view locks nothing itself: in-flight funds are
    moved only by the store's kernels, through the compiled-path lock
    (:meth:`PathTable.lock_funds
    <repro.engine.pathtable.PathTable.lock_funds>`) and the engine's
    transports, so funds are held in-flight during the confirmation delay,
    exactly as in §4.2: *"Funds received on a payment channel remain in a
    pending state until the final receiver provides the key for the hash
    lock."*
    """

    __slots__ = ("_network", "_cid")

    def __init__(
        self,
        node_a: NodeId,
        node_b: NodeId,
        capacity: float,
        balance_a: Optional[float] = None,
        base_fee: float = 0.0,
        fee_rate: float = 0.0,
    ):
        from repro.network.network import PaymentNetwork

        network = PaymentNetwork()
        network.add_channel(node_a, node_b, capacity, balance_a, base_fee, fee_rate)
        self._network = network
        self._cid = 0
        network._views[0] = self

    @classmethod
    def _of(cls, network: "PaymentNetwork", cid: int) -> "PaymentChannel":
        """The view of ``network``'s channel ``cid`` (networks memoise it)."""
        view = cls.__new__(cls)
        view._network = network
        view._cid = cid
        return view

    # ------------------------------------------------------------------
    # Store plumbing
    # ------------------------------------------------------------------
    @property
    def network(self) -> "PaymentNetwork":
        """The network whose columns this channel views."""
        return self._network

    @property
    def store(self) -> ChannelStateStore:
        """The state store backing this channel view."""
        return self._network.state_store

    @property
    def node_a(self) -> NodeId:
        """The endpoint whose funds are the store's side 0."""
        return self._network.endpoints_of(self._cid)[0]

    @property
    def node_b(self) -> NodeId:
        """The endpoint whose funds are the store's side 1."""
        return self._network.endpoints_of(self._cid)[1]

    @property
    def base_fee(self) -> float:
        """Flat part of the forwarding fee."""
        return self._network.base_fees.item(self._cid)

    @base_fee.setter
    def base_fee(self, value: float) -> None:
        self._network.set_fees(self._cid, base_fee=value)

    @property
    def fee_rate(self) -> float:
        """Proportional part of the forwarding fee."""
        return self._network.fee_rates.item(self._cid)

    @fee_rate.setter
    def fee_rate(self, value: float) -> None:
        self._network.set_fees(self._cid, fee_rate=value)

    @property
    def channel_id(self) -> int:
        """Row index of this channel in its store's arrays."""
        return self._cid

    def side(self, node: NodeId) -> int:
        """Store column (0 = ``node_a``, 1 = ``node_b``) for ``node``."""
        node_a, node_b = self.endpoints
        if node == node_a:
            return 0
        if node == node_b:
            return 1
        raise ChannelError(
            f"{node!r} is not an endpoint of channel ({node_a!r}, {node_b!r})"
        )

    @property
    def capacity(self) -> float:
        """Total escrowed funds (grows when :meth:`deposit` adds collateral)."""
        return float(self.store.capacity[self._cid])

    @property
    def total_deposited(self) -> float:
        """Cumulative on-chain deposits made through :meth:`deposit`."""
        return float(self.store.total_deposited[self._cid])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> Tuple[NodeId, NodeId]:
        """The channel's two endpoints as given at construction."""
        return self._network.endpoints_of(self._cid)

    def other(self, node: NodeId) -> NodeId:
        """The counterparty of ``node`` on this channel."""
        node_a, node_b = self.endpoints
        if node == node_a:
            return node_b
        if node == node_b:
            return node_a
        raise ChannelError(f"{node!r} is not an endpoint of {self!r}")

    def balance(self, node: NodeId) -> float:
        """Spendable funds currently held by ``node``."""
        return float(self.store.balance[self._cid, self.side(node)])

    def inflight(self, node: NodeId) -> float:
        """Funds ``node`` has locked in pending transfers."""
        return float(self.store.inflight[self._cid, self.side(node)])

    def available(self, sender: NodeId) -> float:
        """Funds ``sender`` can commit to a new transfer right now.

        This is the quantity routing schemes probe when they measure "path
        capacity": in-flight funds are excluded because they are unusable
        until settlement (§6.1).  A frozen channel (closing, or an offline
        endpoint — see :mod:`repro.network.faults`) accepts nothing.
        """
        if self.store.frozen_count and self.store.frozen[self._cid]:
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
        return bool(self.store.frozen[self._cid])

    def freeze(self) -> None:
        """Stop accepting new locks (channel closure / endpoint outage)."""
        self.store.set_frozen(self._cid, True)

    def unfreeze(self) -> None:
        """Resume normal operation (endpoint back online)."""
        self.store.set_frozen(self._cid, False)

    def settled_flow(self, sender: NodeId) -> float:
        """Cumulative value settled in the ``sender →`` direction."""
        return float(self.store.settled_flow[self._cid, self.side(sender)])

    def attempted_flow(self, sender: NodeId) -> float:
        """Cumulative value locked (settled or not) in the ``sender →`` direction."""
        return float(self.store.sent[self._cid, self.side(sender)])

    def imbalance(self) -> float:
        """Absolute difference between the two spendable balances."""
        row = self.store.balance[self._cid]
        return abs(float(row[0]) - float(row[1]))

    def flow_imbalance(self) -> float:
        """|settled flow a→b − settled flow b→a|, the paper's rate-imbalance notion."""
        row = self.store.settled_flow[self._cid]
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
        side = self.side(node)
        if amount <= 0 or not math.isfinite(amount):
            raise ChannelError(f"deposit must be positive and finite, got {amount!r}")
        self.store.deposit(self._cid, side, amount)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariant(self, tolerance: float = 1e-6) -> None:
        """Assert conservation of escrowed funds; raises on violation."""
        store, cid = self.store, self._cid
        balances = store.balance[cid]
        inflight = store.inflight[cid]
        total = float(balances[0] + balances[1] + inflight[0] + inflight[1])
        node_a, node_b = self.endpoints
        if abs(total - self.capacity) > tolerance:
            raise ChannelError(
                f"conservation violated on ({node_a!r}, {node_b!r}): "
                f"parts sum to {total:.9g}, capacity is {self.capacity:.9g}"
            )
        for side, node in enumerate((node_a, node_b)):
            if balances[side] < -tolerance or inflight[side] < -tolerance:
                raise ChannelError(
                    f"negative funds at {node!r}: balance={float(balances[side]):.9g}, "
                    f"inflight={float(inflight[side]):.9g}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        row = self.store.balance[self._cid]
        return (
            f"PaymentChannel({self.node_a!r}<->{self.node_b!r}, "
            f"cap={self.capacity:.6g}, "
            f"bal=({float(row[0]):.6g}, {float(row[1]):.6g}))"
        )
