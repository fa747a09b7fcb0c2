"""Deterministic graph partitioning for segment routing.

:class:`~repro.routing.segment.SegmentRoutingScheme` splits the channel
graph into *segments* — contiguous node regions — and serves
intra-segment payments from paths that stay inside one segment, carrying
cross-segment payments over a *cut* (cross-segment) channel.  The
partition says which nodes belong to which segment and which channels are
cut.

:func:`partition_adjacency` grows ``num_segments`` regions by seeded
farthest-point sampling + round-robin breadth-first expansion.  The
algorithm is a plain deterministic function of the adjacency, the segment
count and the seed — no RNG state, no hash-order iteration — so every
re-run derives a byte-identical partition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

__all__ = ["GraphPartition", "partition_adjacency"]

Node = int
Edge = Tuple[int, int]


@dataclass(frozen=True)
class GraphPartition:
    """An assignment of every node to one of ``num_segments`` segments.

    Attributes
    ----------
    segments:
        Per-segment sorted node tuples; every node appears exactly once.
    cut_edges:
        Sorted ``(u, v)`` pairs (``u < v``) whose endpoints lie in
        different segments — the channels cross-segment routes stitch over.
    seed:
        The seed the regions were grown from (recorded for artifacts).
    """

    segments: Tuple[Tuple[Node, ...], ...]
    cut_edges: Tuple[Edge, ...]
    seed: int = 0
    _node_segment: Dict[Node, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        lookup = self._node_segment
        for index, nodes in enumerate(self.segments):
            for node in nodes:
                lookup[node] = index

    @property
    def num_segments(self) -> int:
        """Number of segments (some may be empty on tiny graphs)."""
        return len(self.segments)

    def segment_of(self, node: Node) -> int:
        """The segment index owning ``node``."""
        return self._node_segment[node]

    def sizes(self) -> List[int]:
        """Per-segment node counts."""
        return [len(nodes) for nodes in self.segments]

    def is_internal(self, nodes: Sequence[Node]) -> bool:
        """Whether every node of ``nodes`` lies in one segment."""
        lookup = self._node_segment
        if not nodes:
            return True
        first = lookup[nodes[0]]
        return all(lookup[node] == first for node in nodes[1:])

    def cut_edges_between(self, a: int, b: int) -> List[Edge]:
        """Cut edges joining segments ``a`` and ``b``, sorted."""
        lookup = self._node_segment
        want = {a, b}
        return [
            (u, v)
            for u, v in self.cut_edges
            if {lookup[u], lookup[v]} == want
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphPartition(segments={self.sizes()}, "
            f"cut_edges={len(self.cut_edges)})"
        )


def _bfs_distances(
    adjacency: Mapping[Node, Sequence[Node]], sources: Sequence[Node]
) -> Dict[Node, int]:
    """Multi-source BFS hop distances (unreached nodes are absent)."""
    distances: Dict[Node, int] = {node: 0 for node in sources}
    frontier = deque(sources)
    while frontier:
        node = frontier.popleft()
        depth = distances[node] + 1
        for neighbour in adjacency[node]:
            if neighbour not in distances:
                distances[neighbour] = depth
                frontier.append(neighbour)
    return distances


def _select_seeds(
    adjacency: Mapping[Node, Sequence[Node]],
    nodes: Sequence[Node],
    num_segments: int,
    seed: int,
) -> List[Node]:
    """Farthest-point seed nodes: spread regions across the graph.

    The first seed is picked by rotating the sorted node list by ``seed``;
    each further seed maximises the BFS hop distance to all seeds chosen
    so far (ties broken by node id), falling back to the first unreached
    node for disconnected graphs.
    """
    seeds = [nodes[seed % len(nodes)]]
    while len(seeds) < num_segments:
        distances = _bfs_distances(adjacency, seeds)
        chosen = set(seeds)
        best: Tuple[int, Node] | None = None
        for node in nodes:
            if node in chosen:
                continue
            depth = distances.get(node)
            if depth is None:  # disconnected: farthest by definition
                best = (len(adjacency) + 1, node)
                break
            if best is None or depth > best[0]:
                best = (depth, node)
        if best is None:  # fewer nodes than segments
            break
        seeds.append(best[1])
    return seeds


def partition_adjacency(
    adjacency: Mapping[Node, Sequence[Node]],
    num_segments: int,
    seed: int = 0,
) -> GraphPartition:
    """Partition an adjacency mapping into contiguous balanced segments.

    Seeds are spread by farthest-point sampling, then regions grow one
    node per round-robin turn through per-region FIFO frontiers (each
    region's expansion is a breadth-first wave, so segments stay
    contiguous wherever the graph allows).  Nodes unreached by any region
    (disconnected components) are appended, in node order, to whichever
    region is currently smallest.  Deterministic: iteration follows the
    sorted node list and each node's given neighbour order.
    """
    if num_segments <= 0:
        raise ValueError(f"num_segments must be positive, got {num_segments}")
    nodes = sorted(adjacency)
    if not nodes:
        return GraphPartition(
            segments=tuple(() for _ in range(num_segments)),
            cut_edges=(),
            seed=seed,
        )
    num_segments = min(num_segments, len(nodes))
    seeds = _select_seeds(adjacency, nodes, num_segments, seed)
    owner: Dict[Node, int] = {}
    frontiers: List[deque] = [deque() for _ in seeds]
    for index, seed_node in enumerate(seeds):
        owner[seed_node] = index
        frontiers[index].append(seed_node)
    members: List[List[Node]] = [[seed_node] for seed_node in seeds]
    # Round-robin BFS: each region claims one node per turn, so region
    # sizes stay within one node of each other while the frontiers last.
    live = True
    while live:
        live = False
        for index, frontier in enumerate(frontiers):
            while frontier:
                node = frontier.popleft()
                claimed = None
                for neighbour in adjacency[node]:
                    if neighbour not in owner:
                        owner[neighbour] = index
                        members[index].append(neighbour)
                        frontier.append(neighbour)
                        claimed = neighbour
                        break
                if claimed is not None:
                    # The node may have more unclaimed neighbours: revisit
                    # it after the other regions take their turn.
                    frontier.appendleft(node)
                    live = True
                    break
    for node in nodes:  # disconnected leftovers -> smallest region
        if node not in owner:
            index = min(range(len(members)), key=lambda i: (len(members[i]), i))
            owner[node] = index
            members[index].append(node)
    segments = tuple(tuple(sorted(nodes)) for nodes in members)
    cut: List[Edge] = []
    for u in nodes:
        seg_u = owner[u]
        for v in adjacency[u]:
            if u < v and owner[v] != seg_u:
                cut.append((u, v))
    partition = GraphPartition(
        segments=segments, cut_edges=tuple(sorted(cut)), seed=seed
    )
    return partition
