"""The payment channel network state machine.

:class:`PaymentNetwork` owns the node set, the channels, the flat
:class:`~repro.engine.store.ChannelStateStore` they are views of, and
the lazily built per-network services: the compiled-path table
(:class:`~repro.engine.pathtable.PathTable`), path discovery and the
congestion control plane.  Routing schemes move funds only through the
session's send core (``send_compiled``, ``send_on_path``,
``send_atomic``), which locks on compiled paths and resolves each unit
after the confirmation delay (§6.1): it either settles (each hop credits
downstream) or is cancelled (each hop refunds upstream).

The class deliberately contains no routing policy; schemes live in
:mod:`repro.routing` and :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.pathservice import PathService
from repro.engine.pathtable import PathTable, int_node_array
from repro.engine.signals import ControlPlane
from repro.engine.store import ChannelStateStore
from repro.errors import TopologyError
from repro.network.channel import PaymentChannel

__all__ = ["DirectionIndex", "PaymentNetwork", "canonical_edge"]

NodeId = Hashable


def canonical_edge(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
    """Order-independent key for the channel between ``u`` and ``v``.

    Uses the natural ordering when the ids are comparable (ints, strings),
    falling back to ``repr`` ordering for mixed types.
    """
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class DirectionIndex:
    """Array twin of the network's ``(u, v) → direction`` dictionary.

    What the batch path compiler
    (:meth:`PathTable.compile_columns
    <repro.engine.pathtable.PathTable.compile_columns>`) resolves whole
    batches of hops against, built once per topology (the network drops it
    whenever a node or channel is added):

    * ``nodes`` — the sorted node ids; a node's *rank* is its position.
      ``None`` when some id is not a plain integer (or there is no
      channel yet): paths then compile one by one through the dictionary.
    * ``keys`` / ``dirs`` — every directed edge ``u → v`` as
      ``rank(u)·n + rank(v)``, sorted, and the matching direction ids
      ``d = 2·cid + side``; one ``searchsorted`` answers "does this hop
      have a channel, and which direction is it".
    * ``base_fees`` / ``fee_rates`` — the channels' fee schedules as
      per-direction Python lists (both directions of a channel carry its
      schedule), read by :meth:`CompiledPath.hop_amounts
      <repro.engine.pathtable.CompiledPath.hop_amounts>`;
      ``fee_bearing`` flags the directions with a non-zero schedule.
    * ``int_pool`` — an object array holding one Python ``int`` per
      direction id (and so per channel row).  The tuples of ids the engine
      keeps per compiled path are gathered from it, so they share these
      objects instead of each batch's ``tolist()`` minting hundreds of
      thousands of fresh ones.

    Fee schedules are snapshotted here: like the edge set they are part
    of the static topology (§2) and must be configured before the first
    path is compiled.
    """

    __slots__ = (
        "nodes",
        "keys",
        "dirs",
        "base_fees",
        "fee_rates",
        "fee_bearing",
        "int_pool",
    )

    def __init__(self, network: "PaymentNetwork"):
        size = 2 * len(network.state_store)
        self.int_pool = np.arange(size).astype(object)
        self.base_fees: List[float] = [0.0] * size
        self.fee_rates: List[float] = [0.0] * size
        for channel in network.channels():
            d = 2 * channel.channel_id
            self.base_fees[d] = self.base_fees[d + 1] = channel.base_fee
            self.fee_rates[d] = self.fee_rates[d + 1] = channel.fee_rate
        self.fee_bearing = (np.array(self.base_fees) != 0) | (
            np.array(self.fee_rates) != 0
        )
        self.nodes: Optional[np.ndarray] = None
        self.keys = self.dirs = np.empty(0, dtype=np.intp)
        nodes = int_node_array(list(network.nodes()))
        if nodes is None or not network.num_channels:
            return
        nodes.sort()
        self.nodes = nodes
        directions = network._directions
        ranks = np.searchsorted(nodes, np.array(list(directions)))
        keys = ranks[:, 0] * len(nodes) + ranks[:, 1]
        order = np.argsort(keys)
        self.keys = keys[order]
        self.dirs = np.array(
            [2 * cid + side for _, cid, side in directions.values()],
            dtype=np.intp,
        )[order]


class PaymentNetwork:
    """A collection of nodes joined by bidirectional payment channels.

    The network exposes a graph view (``neighbors``, ``edges``) for routing
    algorithms and a funds view (``available``, ``state_store``,
    ``path_table``) for the execution layer.

    Notes
    -----
    Channels are undirected objects addressed by unordered node pairs, but
    *funds* are directional: ``available(u, v)`` is what ``u`` can push
    toward ``v`` right now.
    """

    def __init__(self) -> None:
        self._channels: Dict[Tuple[NodeId, NodeId], PaymentChannel] = {}
        self._adjacency: Dict[NodeId, set] = {}
        # All channel state lives in one flat array store; channels are views.
        self._store = ChannelStateStore()
        # (u, v) -> (channel, store row, u's store column), both directions.
        self._directions: Dict[Tuple[NodeId, NodeId], Tuple[PaymentChannel, int, int]] = {}
        # Array twin of _directions (+ fee columns), built on demand.
        self._direction_index: Optional[DirectionIndex] = None
        self._path_table: Optional[PathTable] = None
        self._control_plane: Optional[ControlPlane] = None
        self._path_service: Optional[PathService] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId) -> None:
        """Add a node (a no-op if it is already present)."""
        if node_id in self._adjacency:
            return
        self._adjacency[node_id] = set()
        self._direction_index = None

    def add_channel(
        self,
        u: NodeId,
        v: NodeId,
        capacity: float,
        balance_u: Optional[float] = None,
        base_fee: float = 0.0,
        fee_rate: float = 0.0,
    ) -> PaymentChannel:
        """Open a channel between ``u`` and ``v`` with total ``capacity`` funds.

        ``balance_u`` defaults to an even split (the paper's setting);
        ``base_fee``/``fee_rate`` set the affine forwarding-fee schedule
        (§2), defaulting to fee-free.  Endpoints are created implicitly.
        Parallel channels between the same pair are not modelled (the
        paper's topologies have none).
        """
        key = canonical_edge(u, v)
        if key in self._channels:
            raise TopologyError(f"channel between {u!r} and {v!r} already exists")
        self.add_node(u)
        self.add_node(v)
        channel = PaymentChannel(
            u,
            v,
            capacity,
            balance_a=balance_u,
            base_fee=base_fee,
            fee_rate=fee_rate,
            store=self._store,
        )
        self._channels[key] = channel
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        cid = channel.channel_id
        self._directions[(u, v)] = (channel, cid, 0)
        self._directions[(v, u)] = (channel, cid, 1)
        self._direction_index = None
        return channel

    # ------------------------------------------------------------------
    # Graph view
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adjacency)

    @property
    def num_channels(self) -> int:
        """Number of channels (undirected edges)."""
        return len(self._channels)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node identifiers."""
        return iter(self._adjacency)

    def has_node(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is part of the network."""
        return node_id in self._adjacency

    def neighbors(self, node_id: NodeId) -> Iterable[NodeId]:
        """Nodes sharing a channel with ``node_id``."""
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def degree(self, node_id: NodeId) -> int:
        """Number of channels incident to ``node_id``."""
        return len(self._adjacency.get(node_id, ()))

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate over channels as canonical (u, v) pairs."""
        return iter(self._channels)

    def channels(self) -> Iterator[PaymentChannel]:
        """Iterate over channel objects."""
        return iter(self._channels.values())

    def has_channel(self, u: NodeId, v: NodeId) -> bool:
        """Whether a channel exists between ``u`` and ``v``."""
        return canonical_edge(u, v) in self._channels

    def channel(self, u: NodeId, v: NodeId) -> PaymentChannel:
        """Return the channel joining ``u`` and ``v``."""
        try:
            return self._channels[canonical_edge(u, v)]
        except KeyError:
            raise TopologyError(f"no channel between {u!r} and {v!r}") from None

    # ------------------------------------------------------------------
    # Funds view
    # ------------------------------------------------------------------
    @property
    def state_store(self) -> ChannelStateStore:
        """The flat array store every channel of this network is a view of.

        Routing schemes, fluid solvers and metrics collectors can read
        (vectorised) channel state here without copying; row indices come
        from :meth:`direction` / :attr:`PaymentChannel.channel_id`.
        """
        return self._store

    def direction(
        self, u: NodeId, v: NodeId
    ) -> Tuple[PaymentChannel, int, int]:
        """``(channel, store row, u's store column)`` for the ``u → v``
        direction, in one lookup."""
        try:
            return self._directions[(u, v)]
        except KeyError:
            raise TopologyError(f"no channel between {u!r} and {v!r}") from None

    def direction_index(self) -> DirectionIndex:
        """The array twin of :meth:`direction` plus the per-direction fee
        columns (see :class:`DirectionIndex`), rebuilt after the topology
        grows."""
        index = self._direction_index
        if index is None:
            index = self._direction_index = DirectionIndex(self)
        return index

    def available(self, u: NodeId, v: NodeId) -> float:
        """Spendable funds in the ``u → v`` direction."""
        _, cid, side = self.direction(u, v)
        store = self._store
        if store.frozen_count and store.frozen[cid]:
            return 0.0
        return float(store.balance[cid, side])

    @property
    def path_table(self) -> PathTable:
        """The network's compiled-path operation table (created lazily).

        Compiles each distinct path once into flat direction-id index
        arrays over the store, then serves bottleneck probes (vectorised),
        fee passes and the checked all-or-nothing lock — see
        :mod:`repro.engine.pathtable`.
        """
        if self._path_table is None:
            self._path_table = PathTable(self)
        return self._path_table

    @property
    def path_service(self) -> PathService:
        """The network's path-discovery service (created lazily).

        One :class:`~repro.engine.pathservice.PathService` per network —
        the only way the system discovers paths: every routing scheme,
        the fluid path-set builders and the CLI resolve pair path sets
        through it, so the sorted adjacency and the pair sets are built
        once and shared instead of once per scheme.
        """
        if self._path_service is None:
            self._path_service = PathService.from_network(self)
        return self._path_service

    @property
    def control_plane(self) -> ControlPlane:
        """The network's congestion control plane (created lazily).

        Flat per-``(cid, side)`` congestion signals — queue-delay marks,
        channel prices, backpressure weights — derived from the
        state store; see :mod:`repro.engine.signals`.  Shared by the hop
        transport, the windowed/backpressure schemes, the price table and
        the metrics summary, and ticked once per poll by the session.
        """
        if self._control_plane is None:
            self._control_plane = ControlPlane(self)
        return self._control_plane

    def peek_control_plane(self) -> Optional[ControlPlane]:
        """The control plane if one was created this run, else ``None``.

        The session uses this to tick and summarise congestion state
        without forcing planes onto runs whose schemes never signal.
        """
        return self._control_plane

    # ------------------------------------------------------------------
    # Aggregates & invariants
    # ------------------------------------------------------------------
    def total_funds(self) -> float:
        """Sum of all channel capacities (escrowed collateral)."""
        return self._store.total_funds()

    def total_inflight(self) -> float:
        """Funds currently locked in pending transfers across the network."""
        return self._store.total_inflight()

    def check_invariants(self) -> None:
        """Check fund conservation on every channel; raises on violation.

        The happy path is one vectorised pass over the store; only on
        violation does the per-channel check re-run to produce the precise
        error message.
        """
        if self._store.check_conservation() is None:
            return
        for channel in self._channels.values():
            channel.check_invariant()

    def balance_snapshot(self) -> Dict[Tuple[NodeId, NodeId], Tuple[float, float]]:
        """Capture ``(balance_a, balance_b)`` per channel, keyed canonically.

        Intended for tests and what-if analyses; restoring is only valid when
        no transfer is pending.
        """
        return {
            key: (c.balance(c.node_a), c.balance(c.node_b))
            for key, c in self._channels.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaymentNetwork(nodes={self.num_nodes}, channels={self.num_channels})"
