"""SpeedyMurmurs-style embedding-based routing baseline.

SpeedyMurmurs [25] assigns every node a *prefix coordinate* in each of T
spanning trees (a child's coordinate extends its parent's with a random
label).  Tree distance between coordinates is computable locally::

    dist(a, b) = |a| + |b| - 2 * common_prefix(a, b)

A payment is split into one share per tree; each share is forwarded
greedily — at node u, choose the neighbour (over *all* channels, not just
tree edges; this is SpeedyMurmurs' improvement over pure tree routing)
that is strictly closer to the destination's coordinate and has enough
balance.  If any share dead-ends, the whole payment fails (atomic).

Faithful simplifications (see DESIGN.md): coordinates are assigned once at
setup (the paper's graphs are static during a run), and shares are equal
value, with capacity-aware fallback ordering at each hop.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.routing.base import RoutingScheme
from repro.simulator.rng import SeedLike, make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession
    from repro.network.network import PaymentNetwork

__all__ = ["SpeedyMurmursScheme", "PrefixEmbedding", "tree_distance"]

Coordinate = Tuple[int, ...]
Path = Tuple[int, ...]
_EPS = 1e-9


def tree_distance(a: Coordinate, b: Coordinate) -> int:
    """Hop distance between two prefix coordinates in their tree."""
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return len(a) + len(b) - 2 * common


class PrefixEmbedding:
    """Prefix coordinates for one spanning tree (one SpeedyMurmurs 'dimension')."""

    def __init__(self, adjacency: Dict[int, List[int]], root: int, seed: SeedLike = 0):
        self._root = root
        self._coordinates: Dict[int, Coordinate] = {}
        rng = make_rng(seed)
        self._coordinates[root] = ()
        queue = deque([root])
        visited = {root}
        while queue:
            node = queue.popleft()
            for neighbour in adjacency[node]:
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                label = int(rng.integers(0, 2**31 - 1))
                self._coordinates[neighbour] = self._coordinates[node] + (label,)
                queue.append(neighbour)

    @property
    def root(self) -> int:
        """The tree's root node."""
        return self._root

    def covers(self, node: int) -> bool:
        """Whether ``node`` lies in the tree (its root's component)."""
        return node in self._coordinates

    def coordinate(self, node: int) -> Coordinate:
        """The node's coordinate (raises KeyError for unreachable nodes)."""
        return self._coordinates[node]

    def distance(self, a: int, b: int) -> int:
        """Tree distance between two nodes."""
        return tree_distance(self._coordinates[a], self._coordinates[b])


class SpeedyMurmursScheme(RoutingScheme):
    """Embedding-based greedy routing with T spanning trees (atomic)."""

    name = "speedymurmurs"
    atomic = True

    def __init__(self, num_trees: int = 3, seed: SeedLike = 0, max_hops: int = 64):
        if num_trees <= 0:
            raise ValueError(f"num_trees must be positive, got {num_trees}")
        if max_hops <= 1:
            raise ValueError(f"max_hops must exceed 1, got {max_hops}")
        self.num_trees = num_trees
        self.seed = seed
        self.max_hops = max_hops
        self._embeddings: List[PrefixEmbedding] = []
        self._adjacency: Dict[int, List[int]] = {}

    def prepare(self, runtime: "SimulationSession") -> None:
        # Shared sorted adjacency from the network's PathService (one
        # construction per network; treated as read-only here).
        self._adjacency = runtime.network.path_service.sorted_adjacency()
        rng = make_rng(self.seed)
        by_degree = sorted(
            self._adjacency, key=lambda n: (-len(self._adjacency[n]), n)
        )
        self._embeddings = []
        for t in range(self.num_trees):
            # Roots are the highest-degree nodes (deterministic, distinct
            # when possible), labels are randomised per tree.
            root = by_degree[t % len(by_degree)]
            self._embeddings.append(
                PrefixEmbedding(self._adjacency, root, seed=rng)
            )

    # ------------------------------------------------------------------
    def _greedy_route(
        self,
        embedding: PrefixEmbedding,
        network: "PaymentNetwork",
        source: int,
        dest: int,
        amount: float,
        reserved: Dict[Tuple[int, int], float],
    ) -> Optional[Path]:
        """Greedy balance-aware descent toward the destination coordinate.

        ``reserved`` tracks balance already promised to other shares of the
        same payment so the shares don't double-spend a channel.
        """
        if not (embedding.covers(source) and embedding.covers(dest)):
            return None  # the tree spans another component of the graph
        path = [source]
        node = source
        for _ in range(self.max_hops):
            if node == dest:
                return tuple(path)
            here = embedding.distance(node, dest)
            candidates: List[Tuple[int, float, int]] = []
            for neighbour in self._adjacency[node]:
                if neighbour in path:
                    continue
                distance = embedding.distance(neighbour, dest)
                if distance >= here:
                    continue
                available = network.available(node, neighbour) - reserved.get(
                    (node, neighbour), 0.0
                )
                if available + _EPS < amount:
                    continue
                candidates.append((distance, -available, neighbour))
            if not candidates:
                return None
            candidates.sort()
            node = candidates[0][2]
            path.append(node)
        return None

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        shares = self._split_amount(payment.amount)
        allocations: List[Tuple[Path, float]] = []
        reserved: Dict[Tuple[int, int], float] = {}
        for embedding, share in zip(self._embeddings, shares):
            if share <= _EPS:
                continue
            path = self._greedy_route(
                embedding,
                runtime.network,
                payment.source,
                payment.dest,
                share,
                reserved,
            )
            if path is None:
                runtime.fail_payment(payment)
                return
            for a, b in zip(path, path[1:]):
                reserved[(a, b)] = reserved.get((a, b), 0.0) + share
            allocations.append((path, share))
        if not allocations or not runtime.send_atomic(payment, allocations):
            runtime.fail_payment(payment)

    def _split_amount(self, amount: float) -> List[float]:
        """Equal split across trees (last share absorbs rounding)."""
        base = amount / self.num_trees
        shares = [base] * self.num_trees
        shares[-1] = amount - base * (self.num_trees - 1)
        return shares
