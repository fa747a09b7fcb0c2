"""Segment-aware source routing: route locally, stitch at cut channels.

A locality scheme following the lineage of SpeedyMurmurs and the
segment-routing idea of the segflow line of work: partition the graph into
contiguous segments
(:func:`repro.topology.partition.partition_adjacency`), serve intra-segment
payments from path sets that never leave the segment, and carry
cross-segment payments over an explicitly chosen *cut channel*, stitching
a local leg to the cut endpoint, the cut channel itself, and a local leg
onward.

Routing is deterministic end to end: the partition is a pure function of
the adjacency and the partition seed, legs are breadth-first shortest
paths inside a segment (sorted-neighbour tie-breaks), and cut channels
are tried in sorted order.  Payments whose stitched route cannot be built
(node conflicts, segment-disconnected endpoints) fall back to the global
k-edge-disjoint candidate set, so the scheme degrades to shortest-path
behaviour rather than failing traffic a plain scheme would deliver.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.routing.base import RoutingScheme
from repro.topology.partition import GraphPartition, partition_adjacency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["SegmentRoutingScheme"]

Path = Tuple[int, ...]


class SegmentRoutingScheme(RoutingScheme):
    """Greedy non-atomic sends over segment-local or stitched paths.

    Parameters
    ----------
    num_segments:
        Segments to partition the channel graph into.
    num_paths:
        Global candidate paths per pair (the usual k-edge-disjoint
        budget); used for intra-segment selection and as the stitching
        fallback.
    partition_seed:
        Seed for the deterministic region growth.
    """

    name = "segment-routing"
    atomic = False

    def __init__(
        self,
        num_segments: int = 4,
        num_paths: int = 4,
        partition_seed: int = 0,
    ):
        if num_segments <= 0:
            raise ValueError(
                f"num_segments must be positive, got {num_segments}"
            )
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        self.num_segments = num_segments
        self.num_paths = num_paths
        self.partition_seed = partition_seed
        self.partition: Optional[GraphPartition] = None
        self._adjacency: Dict[int, List[int]] = {}
        self._routes: Dict[Tuple[int, int], Optional[Path]] = {}
        self._legs: Dict[Tuple[int, int, int], Optional[Path]] = {}

    def prepare(self, runtime: "SimulationSession") -> None:
        """Bind the path service view and build the partition."""
        super().prepare(runtime)
        service = runtime.network.path_service
        self._adjacency = service.sorted_adjacency()
        self.partition = partition_adjacency(
            self._adjacency, self.num_segments, seed=self.partition_seed
        )
        self._routes = {}
        self._legs = {}

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        path = self._route(payment.source, payment.dest)
        if path is None:
            runtime.fail_payment(payment)
            return
        runtime.send_on_path(payment, path)

    # ------------------------------------------------------------------
    # Route construction (memoised per pair)
    # ------------------------------------------------------------------
    def _route(self, source: int, dest: int) -> Optional[Path]:
        key = (source, dest)
        cached = self._routes.get(key, self)
        if cached is not self:
            return cached  # type: ignore[return-value]
        partition = self.partition
        assert partition is not None, "prepare() must run before attempt()"
        candidates = self.path_cache.paths(source, dest)
        route: Optional[Path] = None
        if partition.segment_of(source) == partition.segment_of(dest):
            for path in candidates:
                if partition.is_internal(path):
                    route = tuple(path)
                    break
        if route is None:
            route = self._stitch(source, dest)
        if route is None and candidates:
            route = tuple(candidates[0])  # global fallback
        self._routes[key] = route
        return route

    def _stitch(self, source: int, dest: int) -> Optional[Path]:
        """A cross-segment path: local legs joined at cut channels."""
        partition = self.partition
        assert partition is not None
        seg_path = self._segment_route(
            partition.segment_of(source), partition.segment_of(dest)
        )
        if seg_path is None:
            return None
        route: List[int] = [source]
        seen = {source}
        current = source
        for seg_a, seg_b in zip(seg_path, seg_path[1:]):
            hop = self._cross(current, seg_a, seg_b, seen, route)
            if hop is None:
                return None
            current = hop
        tail = self._leg(current, dest, partition.segment_of(dest))
        if tail is None or any(node in seen for node in tail[1:]):
            return None
        route.extend(tail[1:])
        return tuple(route)

    def _cross(
        self,
        current: int,
        seg_a: int,
        seg_b: int,
        seen: set,
        route: List[int],
    ) -> Optional[int]:
        """Extend ``route`` from ``current`` over one cut channel into
        ``seg_b``; returns the landing node (or ``None``: no usable cut).

        Cut channels between the two segments are tried in sorted edge
        order; a candidate is usable when the local leg to its near
        endpoint exists inside ``seg_a`` and introduces no node already
        on the route (paths must be trails).
        """
        partition = self.partition
        assert partition is not None
        for u, v in partition.cut_edges_between(seg_a, seg_b):
            near, far = (u, v) if partition.segment_of(u) == seg_a else (v, u)
            if far in seen:
                continue
            leg = self._leg(current, near, seg_a)
            if leg is None:
                continue
            if any(node in seen for node in leg[1:]):
                continue
            route.extend(leg[1:])
            route.append(far)
            seen.update(leg[1:])
            seen.add(far)
            return far
        return None

    def _segment_route(self, start: int, goal: int) -> Optional[Tuple[int, ...]]:
        """Shortest segment-level route over the cut-channel graph."""
        if start == goal:
            return (start,)
        partition = self.partition
        assert partition is not None
        neighbours: Dict[int, List[int]] = {}
        for u, v in partition.cut_edges:
            a, b = partition.segment_of(u), partition.segment_of(v)
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
        parents: Dict[int, int] = {start: start}
        frontier = deque([start])
        while frontier:
            seg = frontier.popleft()
            for nxt in sorted(neighbours.get(seg, ())):
                if nxt not in parents:
                    parents[nxt] = seg
                    if nxt == goal:
                        chain = [goal]
                        while chain[-1] != start:
                            chain.append(parents[chain[-1]])
                        return tuple(reversed(chain))
                    frontier.append(nxt)
        return None

    def _leg(self, a: int, b: int, segment: int) -> Optional[Path]:
        """BFS shortest path from ``a`` to ``b`` staying inside ``segment``.

        Sorted-adjacency tie-breaks make the leg deterministic; memoised
        per (a, b, segment).
        """
        key = (a, b, segment)
        cached = self._legs.get(key, self)
        if cached is not self:
            return cached  # type: ignore[return-value]
        partition = self.partition
        assert partition is not None
        result: Optional[Path] = None
        if a == b:
            result = (a,)
        else:
            parents: Dict[int, int] = {a: a}
            frontier = deque([a])
            while frontier and result is None:
                node = frontier.popleft()
                for neighbour in self._adjacency[node]:
                    if neighbour in parents:
                        continue
                    if partition.segment_of(neighbour) != segment:
                        continue
                    parents[neighbour] = node
                    if neighbour == b:
                        chain = [b]
                        while chain[-1] != a:
                            chain.append(parents[chain[-1]])
                        result = tuple(reversed(chain))
                        break
                    frontier.append(neighbour)
        self._legs[key] = result
        return result
