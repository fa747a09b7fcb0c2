"""Topology datatype.

A :class:`Topology` is an undirected multigraph-free graph description —
node list, edge list, optional per-edge capacities — decoupled from the
stateful :class:`~repro.network.network.PaymentNetwork` so that a single
topology can be instantiated many times with different capacities (the
paper's Fig. 7 capacity sweep does exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.network.network import PaymentNetwork, canonical_edge

__all__ = ["Topology"]

Edge = Tuple[int, int]


@dataclass
class Topology:
    """An immutable-by-convention graph description.

    Attributes
    ----------
    name:
        Human-readable identifier used in reports ("isp", "ripple-small"...).
    nodes:
        Node identifiers (ints throughout the built-in generators).
    edges:
        Undirected edges as (u, v) pairs; stored canonically and deduplicated.
    capacities:
        Optional per-edge total channel funds.  Edges absent from the map use
        the ``default_capacity`` passed to :meth:`build_network`.
    """

    name: str
    nodes: List[int]
    edges: List[Edge]
    capacities: Dict[Edge, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise TopologyError(f"topology {self.name!r} has duplicate nodes")
        seen: set = set()
        clean: List[Edge] = []
        for u, v in self.edges:
            if u == v:
                raise TopologyError(f"topology {self.name!r} has self-loop at {u!r}")
            if u not in node_set or v not in node_set:
                raise TopologyError(
                    f"topology {self.name!r} edge ({u!r}, {v!r}) uses unknown node"
                )
            key = canonical_edge(u, v)
            if key in seen:
                continue
            seen.add(key)
            clean.append(key)
        self.edges = clean
        self.capacities = {canonical_edge(u, v): c for (u, v), c in self.capacities.items()}

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    def degree_sequence(self) -> List[int]:
        """Sorted (descending) degree sequence."""
        degree: Dict[int, int] = {n: 0 for n in self.nodes}
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        return sorted(degree.values(), reverse=True)

    def adjacency(self) -> Dict[int, List[int]]:
        """Adjacency lists with deterministically sorted neighbours."""
        adj: Dict[int, List[int]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for neighbours in adj.values():
            neighbours.sort()
        return adj

    def is_connected(self) -> bool:
        """Breadth-first connectivity check."""
        if not self.nodes:
            return True
        adj = self.adjacency()
        root = self.nodes[0]
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for node in frontier:
                for neighbour in adj[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        nxt.append(neighbour)
            frontier = nxt
        return len(seen) == len(self.nodes)

    # ------------------------------------------------------------------
    def build_network(
        self,
        default_capacity: float,
        balance_fraction: float = 0.5,
        base_fee: float = 0.0,
        fee_rate: float = 0.0,
    ) -> PaymentNetwork:
        """Instantiate a :class:`PaymentNetwork` from this topology.

        One bulk :meth:`PaymentNetwork.add_channels
        <repro.network.network.PaymentNetwork.add_channels>` call: channel
        ``k`` is edge ``k``, its first endpoint holding side 0.

        Parameters
        ----------
        default_capacity:
            Total funds per channel for edges without an explicit capacity.
            The paper's experiments set a uniform capacity per link
            (10 000–100 000 XRP) split evenly.
        balance_fraction:
            Fraction of each channel's funds initially held by the
            canonically-first endpoint.  0.5 reproduces the paper's even
            split.
        base_fee, fee_rate:
            Uniform forwarding-fee schedule applied to every channel (§2);
            fee-free by default, matching the paper's evaluation.
        """
        if default_capacity <= 0:
            raise TopologyError(f"default_capacity must be positive, got {default_capacity!r}")
        if not 0.0 <= balance_fraction <= 1.0:
            raise TopologyError(
                f"balance_fraction must lie in [0, 1], got {balance_fraction!r}"
            )
        network = PaymentNetwork()
        network.add_nodes(self.nodes)
        capacities = [self.capacities.get(edge, default_capacity) for edge in self.edges]
        us = [u for u, _ in self.edges]
        vs = [v for _, v in self.edges]
        network.add_channels(
            us,
            vs,
            capacities,
            np.asarray(capacities, dtype=np.float64) * balance_fraction,
            base_fee=base_fee,
            fee_rate=fee_rate,
        )
        return network

    def with_capacity(self, capacity: float) -> "Topology":
        """Copy of this topology with every edge set to ``capacity``."""
        return Topology(
            name=self.name,
            nodes=list(self.nodes),
            edges=list(self.edges),
            capacities={e: capacity for e in self.edges},
        )

    def to_networkx(self):
        """Export to a :mod:`networkx` graph (for analysis/interop only)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for u, v in self.edges:
            graph.add_edge(u, v, capacity=self.capacities.get((u, v)))
        return graph
