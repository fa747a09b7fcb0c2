"""The payment channel network state machine, kept as columns.

:class:`PaymentNetwork` stores its channels as arrays beside the flat
:class:`~repro.engine.store.ChannelStateStore` that holds their funds:

* one node list (insertion order) and its ``node id → position`` map;
* per-channel columns: the endpoints' node positions (``node_a``,
  ``node_b``; the store's sides 0 and 1) and the fee schedule
  (``base_fee``, ``fee_rate``);
* the channel graph, a :class:`~repro.engine.pathservice.CsrGraph`
  built when first needed and rebuilt on the first lookup after the
  network grew: the CSR adjacency over the nodes in ascending id order
  (a node's *rank*) with sorted neighbour rows, each entry carrying its
  direction id.  It is the one graph: the direction lookup (a single
  pair reads its rows as dicts), path discovery, which shares it as it
  is, and the path compiler, which searches its sorted rank keys.

Channel ``cid`` is the ``cid``-th channel opened and its direction ids
are ``d = 2·cid + side`` (side 0 sends from ``node_a``).
:class:`~repro.network.channel.PaymentChannel` objects are ``(network,
cid)`` views, made on first request and memoised, so a run that never
asks for a channel builds none.  Fees are part of the static topology
(§2): a view's fee setter writes the column until the network's
:class:`DirectionIndex` is first built, and raises
:class:`~repro.errors.ChannelError` after, when compiled paths would
silently keep the old schedule.

The network also owns the lazily built per-network services: the
compiled-path table (:class:`~repro.engine.pathtable.PathTable`), path
discovery and the congestion control plane.  Routing schemes move funds
only through the session's send core (``send_compiled``,
``send_on_path``, ``send_atomic``), which locks on compiled paths and
resolves each unit after the confirmation delay (§6.1): it either
settles (each hop credits downstream) or is cancelled (each hop refunds
upstream).

The class deliberately contains no routing policy; schemes live in
:mod:`repro.routing` and :mod:`repro.core`.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.pathservice import CsrGraph, PathService, id_order
from repro.engine.pathtable import PathTable
from repro.engine.signals import ControlPlane
from repro.engine.store import ChannelStateStore
from repro.errors import ChannelError, TopologyError
from repro.network.channel import PaymentChannel

__all__ = ["DirectionIndex", "PaymentNetwork", "canonical_edge"]

NodeId = Hashable
FloatColumn = Union[float, Sequence[float], np.ndarray]


def canonical_edge(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
    """Order-independent key for the channel between ``u`` and ``v``.

    Uses the natural ordering when the ids are comparable (ints, strings),
    falling back to ``repr`` ordering for mixed types.
    """
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


def _pair(i: int, j: int) -> int:
    """Order-free key of the node positions ``i`` and ``j``."""
    return (min(i, j) << 32) | max(i, j)


def _checked_balance(
    u: NodeId,
    v: NodeId,
    capacity: float,
    balance_u: Optional[float],
    base_fee: float,
    fee_rate: float,
) -> float:
    """Validate one channel's parameters; returns ``u``'s opening balance
    (an even split when ``balance_u`` is ``None``).  The one source of the
    channel errors, for :meth:`PaymentNetwork.add_channel` and for the
    first offender of :meth:`PaymentNetwork.add_channels`."""
    if u == v:
        raise ChannelError(f"channel endpoints must differ, got {u!r} twice")
    if capacity <= 0 or not math.isfinite(capacity):
        raise ChannelError(f"capacity must be positive and finite, got {capacity!r}")
    if balance_u is None:
        balance_u = capacity / 2.0
    # ``not 0 <= x <= c`` also catches NaN, which fails both sides.
    if not 0 <= balance_u <= capacity:
        raise ChannelError(
            f"balance_a={balance_u!r} outside [0, capacity={capacity!r}]"
        )
    _check_fees(base_fee, fee_rate)
    return balance_u


def _check_fees(base_fee: float, fee_rate: float) -> None:
    if not (0.0 <= base_fee < math.inf and 0.0 <= fee_rate < math.inf):
        raise ChannelError(
            "fees must be non-negative and finite, got "
            f"base_fee={base_fee!r}, fee_rate={fee_rate!r}"
        )


def _column(values: FloatColumn, rows: int) -> np.ndarray:
    """``values`` (one number or one per row) as a float64 column."""
    return np.broadcast_to(np.asarray(values, dtype=np.float64), (rows,))


def _item(values: FloatColumn, row: int) -> object:
    """Row ``row`` of ``values`` as the caller gave it: a list's own
    element, a broadcast scalar itself, an array's as a Python number."""
    if isinstance(values, (list, tuple)):
        return values[row]
    if np.ndim(values) == 0:
        return values
    return np.asarray(values)[row].item()


def _per_direction(column: np.ndarray) -> List[float]:
    """A per-channel column as a per-direction list (both directions of a
    channel hold its value) whose equal entries share one float object."""
    values, inverse = np.unique(column, return_inverse=True)
    pool = np.empty(values.shape[0], dtype=object)
    pool[:] = values.tolist()
    return pool[np.repeat(inverse, 2)].tolist()


class DirectionIndex:
    """The per-direction fee lists the path compiler reads, built once
    per topology (the network drops it whenever a node or channel is
    added):

    * ``base_fees`` / ``fee_rates`` — the fee columns as per-direction
      Python lists (both directions of a channel carry its schedule),
      read by :meth:`CompiledPath.hop_amounts
      <repro.engine.pathtable.CompiledPath.hop_amounts>`;
      ``fee_bearing`` flags the directions with a non-zero schedule.
    * ``int_pool`` — an object array holding one Python ``int`` per
      direction id (and so per channel row).  The tuples of ids the engine
      keeps per compiled path are gathered from it, so they share these
      objects instead of each batch's ``tolist()`` minting hundreds of
      thousands of fresh ones.

    Once a network has built one, its fees are fixed: a channel view's
    fee setter raises instead of editing a schedule compiled paths
    already read.
    """

    __slots__ = ("base_fees", "fee_rates", "fee_bearing", "int_pool")

    def __init__(self, network: "PaymentNetwork"):
        self.int_pool = np.arange(2 * network.num_channels).astype(object)
        base, rate = network.base_fees, network.fee_rates
        self.base_fees: List[float] = _per_direction(base)
        self.fee_rates: List[float] = _per_direction(rate)
        self.fee_bearing = ((base != 0) | (rate != 0)).repeat(2)


class PaymentNetwork:
    """A collection of nodes joined by bidirectional payment channels.

    The network exposes a graph view (``neighbors``, ``edges``,
    :meth:`graph`) for routing algorithms and a funds view
    (``available``, ``state_store``, ``path_table``) for the execution
    layer.

    Notes
    -----
    Channels are undirected and addressed by unordered node pairs, but
    *funds* are directional: ``available(u, v)`` is what ``u`` can push
    toward ``v`` right now.
    """

    def __init__(self) -> None:
        self._nodes: List[NodeId] = []
        self._index: Dict[NodeId, int] = {}
        # Per-channel columns, grown by doubling; rows past the store's
        # channel count are unused.
        self._ends = np.zeros((0, 2), dtype=np.int64)
        self._base_fee = np.zeros(0, dtype=np.float64)
        self._fee_rate = np.zeros(0, dtype=np.float64)
        # All channel funds live in one flat array store.
        self._store = ChannelStateStore()
        # The CSR adjacency and direction lookup, the one way a pair is
        # found: rebuilt on the first lookup after the network grew
        # (_stale).  A run of add_channel calls checks for duplicates
        # against the graph built before the run plus the node-position
        # pairs (_pair) it appended; add_channels drops the graph.
        self._graph: Optional[CsrGraph] = None
        self._stale = True
        self._appended: Set[int] = set()
        self._views: Dict[int, PaymentChannel] = {}
        self._direction_index: Optional[DirectionIndex] = None
        self._fees_fixed = False
        self._path_table: Optional[PathTable] = None
        self._control_plane: Optional[ControlPlane] = None
        self._path_service: Optional[PathService] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId) -> None:
        """Add a node (a no-op if it is already present)."""
        self.add_nodes((node_id,))

    def add_nodes(self, node_ids: Iterable[NodeId]) -> None:
        """Add every node of ``node_ids`` not yet present, in order."""
        index, nodes = self._index, self._nodes
        before = len(nodes)
        for node in node_ids:
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
        if len(nodes) != before:
            self._stale = True
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
        paper's topologies have none).  Amortised O(1): the channel is
        appended to the columns; the graph is rebuilt at most once per run
        of appends, on the first lookup after it.
        """
        graph = self._graph
        if graph is None:
            graph = self.graph()
        index = self._index
        i, j = index.get(u), index.get(v)
        if graph.find(u, v) >= 0 or (
            i is not None and j is not None and _pair(i, j) in self._appended
        ):
            raise TopologyError(f"channel between {u!r} and {v!r} already exists")
        balance_u = _checked_balance(u, v, capacity, balance_u, base_fee, fee_rate)
        self.add_nodes((u, v))
        i, j = index[u], index[v]
        cid = self._store.allocate(float(capacity), float(balance_u))
        self._reserve(cid + 1)
        self._ends[cid] = (i, j)
        self._base_fee[cid] = base_fee
        self._fee_rate[cid] = fee_rate
        self._appended.add(_pair(i, j))
        self._stale = True
        self._direction_index = None
        return self._view(cid)

    def add_channels(
        self,
        us: Sequence[NodeId],
        vs: Sequence[NodeId],
        capacities: FloatColumn,
        balances_u: Optional[FloatColumn] = None,
        base_fee: FloatColumn = 0.0,
        fee_rate: FloatColumn = 0.0,
    ) -> None:
        """Open channel ``us[k] — vs[k]`` for every ``k``, in one pass.

        :meth:`add_channel` over the rows, vectorised: the columns and the
        store grow once, to their final size.  All or nothing: when a row
        is invalid, nothing is added and the first offender raises exactly
        what :meth:`add_channel` raises for it.  ``capacities``,
        ``balances_u`` (default: even splits), ``base_fee`` and
        ``fee_rate`` take one number or one per row.
        """
        rows = len(us)
        if len(vs) != rows:
            raise ValueError(f"{rows} first endpoints but {len(vs)} second ones")
        if not rows:
            return
        endpoints = list(chain.from_iterable(zip(us, vs)))
        index = self._index
        fresh = [node for node in dict.fromkeys(endpoints) if node not in index]
        lookup = index
        if fresh:
            lookup = dict(index)
            lookup.update(zip(fresh, range(len(self._nodes), len(self._nodes) + len(fresh))))
        ends = np.fromiter(
            map(lookup.__getitem__, endpoints), dtype=np.int64, count=2 * rows
        ).reshape(rows, 2)
        capacity = _column(capacities, rows)
        balance = (
            capacity / 2.0 if balances_u is None else _column(balances_u, rows)
        )
        base, rate = _column(base_fee, rows), _column(fee_rate, rows)
        bad = self._duplicates(ends)
        bad |= ends[:, 0] == ends[:, 1]
        bad |= (capacity <= 0) | ~np.isfinite(capacity)
        bad |= ~((0 <= balance) & (balance <= capacity))
        bad |= ~((0 <= base) & (base < math.inf) & (0 <= rate) & (rate < math.inf))
        if bad.any():
            row = int(np.argmax(bad))
            u, v = us[row], vs[row]
            if self._duplicates(ends[: row + 1])[row]:
                raise TopologyError(f"channel between {u!r} and {v!r} already exists")
            _checked_balance(
                u,
                v,
                _item(capacities, row),
                None if balances_u is None else _item(balances_u, row),
                _item(base_fee, row),
                _item(fee_rate, row),
            )
            raise AssertionError(f"row {row} failed the batch check only")
        self.add_nodes(fresh)
        first = self._store.allocate_many(capacity, balance)
        self._reserve(first + rows)
        self._ends[first : first + rows] = ends
        self._base_fee[first : first + rows] = base
        self._fee_rate[first : first + rows] = rate
        self._graph = None
        self._stale = True
        self._appended.clear()
        self._direction_index = None

    def _duplicates(self, ends: np.ndarray) -> np.ndarray:
        """Rows of ``ends`` (node positions) whose pair already has a
        channel: an earlier row's, or the network's."""
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        dup = np.ones(ends.shape[0], dtype=bool)
        dup[np.unique((lo << 32) | hi, return_index=True)[1]] = False
        if self.num_channels:
            nodes = self._nodes
            for row in np.flatnonzero(hi < len(nodes)).tolist():
                if self._find(nodes[lo[row]], nodes[hi[row]]) >= 0:
                    dup[row] = True
        return dup

    def _reserve(self, total: int) -> None:
        """Grow the per-channel columns to hold ``total`` rows."""
        size = self._base_fee.shape[0]
        if total <= size:
            return
        size = max(2 * size, total, 16)
        ends = np.zeros((size, 2), dtype=np.int64)
        ends[: self._ends.shape[0]] = self._ends
        self._ends = ends
        self._base_fee = np.concatenate(
            (self._base_fee, np.zeros(size - self._base_fee.shape[0]))
        )
        self._fee_rate = np.concatenate(
            (self._fee_rate, np.zeros(size - self._fee_rate.shape[0]))
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _find(self, u: NodeId, v: NodeId) -> int:
        """The ``u → v`` direction id, ``-1`` when there is no channel."""
        return self.graph().find(u, v)

    def graph(self) -> CsrGraph:
        """The channel graph over every node and channel (see
        :class:`~repro.engine.pathservice.CsrGraph`), rebuilt after the
        network grows."""
        graph = self._graph
        if graph is None or self._stale:
            nodes = self._nodes
            try:
                order = id_order(nodes)
            except TopologyError:  # lookups still work; discovery raises
                order = np.arange(len(nodes))
            rank = np.empty(len(nodes), dtype=np.int64)
            rank[order] = np.arange(len(nodes))
            graph = self._graph = CsrGraph(
                [nodes[i] for i in order.tolist()],
                rank[self._ends[: self.num_channels]],
            )
            self._stale = False
            self._appended.clear()
        return graph

    def _view(self, cid: int) -> PaymentChannel:
        view = self._views.get(cid)
        if view is None:
            view = self._views[cid] = PaymentChannel._of(self, cid)
        return view

    # ------------------------------------------------------------------
    # Graph view
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_channels(self) -> int:
        """Number of channels (undirected edges)."""
        return len(self._store)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node identifiers, in the order they were added."""
        return iter(self._nodes)

    def has_node(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is part of the network."""
        return node_id in self._index

    def neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Nodes sharing a channel with ``node_id``, in ascending id order."""
        graph = self.graph()
        rank = graph.index.get(node_id)
        if rank is None:
            raise TopologyError(f"unknown node {node_id!r}")
        return graph.neighbours(rank)

    def degree(self, node_id: NodeId) -> int:
        """Number of channels incident to ``node_id``."""
        graph = self.graph()
        rank = graph.index.get(node_id)
        if rank is None:
            return 0
        return int(graph.indptr[rank + 1] - graph.indptr[rank])

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate over channels as canonical (u, v) pairs, in channel order."""
        nodes = self._nodes
        for a, b in self._ends[: self.num_channels].tolist():
            yield canonical_edge(nodes[a], nodes[b])

    def directed_edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate over ``(sender, receiver)`` in direction-id order:
        direction ``2·cid`` is ``node_a → node_b``, ``2·cid + 1`` back."""
        nodes = self._nodes
        for a, b in self._ends[: self.num_channels].tolist():
            yield nodes[a], nodes[b]
            yield nodes[b], nodes[a]

    def channels(self) -> Iterator[PaymentChannel]:
        """Iterate over channel views, in channel order."""
        return (self._view(cid) for cid in range(self.num_channels))

    def has_channel(self, u: NodeId, v: NodeId) -> bool:
        """Whether a channel exists between ``u`` and ``v``."""
        return self._find(u, v) >= 0

    def channel(self, u: NodeId, v: NodeId) -> PaymentChannel:
        """Return the (memoised) view of the channel joining ``u`` and ``v``."""
        return self._view(self.direction_id(u, v) >> 1)

    def endpoints_of(self, cid: int) -> Tuple[NodeId, NodeId]:
        """Channel ``cid``'s ``(node_a, node_b)``."""
        a, b = self._ends[cid].tolist()
        return self._nodes[a], self._nodes[b]

    @property
    def endpoints(self) -> np.ndarray:
        """``(m, 2)`` read-only node positions (in :meth:`nodes` order) of
        every channel's ``node_a`` and ``node_b``."""
        view = self._ends[: self.num_channels]
        view.flags.writeable = False
        return view

    @property
    def base_fees(self) -> np.ndarray:
        """``(m,)`` read-only per-channel base fees."""
        view = self._base_fee[: self.num_channels]
        view.flags.writeable = False
        return view

    @property
    def fee_rates(self) -> np.ndarray:
        """``(m,)`` read-only per-channel proportional fee rates."""
        view = self._fee_rate[: self.num_channels]
        view.flags.writeable = False
        return view

    def set_fees(
        self,
        cid: int,
        base_fee: Optional[float] = None,
        fee_rate: Optional[float] = None,
    ) -> None:
        """Change channel ``cid``'s fee schedule (``None`` keeps a part).

        Raises :class:`~repro.errors.ChannelError` once the network's
        :class:`DirectionIndex` exists: compiled paths price with the
        schedule it read.
        """
        if self._fees_fixed:
            a, b = self.endpoints_of(cid)
            raise ChannelError(
                f"fees of channel ({a!r}, {b!r}) are fixed: paths were "
                "compiled with them; set fees before the first path compiles"
            )
        base = self._base_fee.item(cid) if base_fee is None else base_fee
        rate = self._fee_rate.item(cid) if fee_rate is None else fee_rate
        _check_fees(base, rate)
        self._base_fee[cid] = base
        self._fee_rate[cid] = rate

    # ------------------------------------------------------------------
    # Funds view
    # ------------------------------------------------------------------
    @property
    def state_store(self) -> ChannelStateStore:
        """The flat array store every channel of this network is a view of.

        Routing schemes, fluid solvers and metrics collectors can read
        (vectorised) channel state here without copying; row indices come
        from :meth:`direction_id` / :attr:`PaymentChannel.channel_id`.
        """
        return self._store

    def direction_id(self, u: NodeId, v: NodeId) -> int:
        """The ``u → v`` direction id ``d = 2·cid + side``: the store row
        is ``d >> 1`` and ``u``'s column ``d & 1``."""
        graph = self._graph
        if graph is None or self._stale:
            graph = self.graph()
        d = graph.find(u, v)
        if d < 0:
            raise TopologyError(f"no channel between {u!r} and {v!r}")
        return d

    def direction_index(self) -> DirectionIndex:
        """The per-direction fee lists (see :class:`DirectionIndex`),
        rebuilt after the topology grows.  Fixes the fee schedule."""
        index = self._direction_index
        if index is None:
            index = self._direction_index = DirectionIndex(self)
            self._fees_fixed = True
        return index

    def available(self, u: NodeId, v: NodeId) -> float:
        """Spendable funds in the ``u → v`` direction."""
        return self._store.available(self.direction_id(u, v))

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
        through it, so the CSR graph and the pair sets are built once and
        shared instead of once per scheme.
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
        for channel in self.channels():
            channel.check_invariant()

    def balance_snapshot(self) -> Dict[Tuple[NodeId, NodeId], Tuple[float, float]]:
        """Capture ``(balance_a, balance_b)`` per channel, keyed canonically.

        Intended for tests and what-if analyses; restoring is only valid when
        no transfer is pending.
        """
        rows = self._store.balance_view.tolist()
        return {key: (a, b) for key, (a, b) in zip(self.edges(), rows)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaymentNetwork(nodes={self.num_nodes}, channels={self.num_channels})"
