"""Topology serialisation.

A tiny line-oriented text format so experiments can be saved, shared, and
re-run: comments start with ``#``, the header line is ``topology <name>``,
node lines are ``node <id>`` and edge lines are ``edge <u> <v> [capacity]``.
Node ids are integers; a capacity is a positive finite number, and lines
repeating a channel must agree on it.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import TopologyError
from repro.network.network import canonical_edge
from repro.topology.base import Topology

__all__ = ["dump_topology", "dumps_topology", "load_topology", "loads_topology"]


def dumps_topology(topology: Topology) -> str:
    """Serialise a topology to the text format."""
    out = io.StringIO()
    out.write(f"topology {topology.name}\n")
    for node in topology.nodes:
        out.write(f"node {node}\n")
    for u, v in topology.edges:
        capacity = topology.capacities.get((u, v))
        if capacity is None:
            out.write(f"edge {u} {v}\n")
        else:
            out.write(f"edge {u} {v} {capacity!r}\n")
    return out.getvalue()


def dump_topology(topology: Topology, path: Union[str, Path]) -> None:
    """Write a topology to ``path``."""
    Path(path).write_text(dumps_topology(topology))


def loads_topology(text: str) -> Topology:
    """Parse a topology from the text format.

    A capacity must be a positive finite number, and two edge lines for
    the same channel (in either direction) must agree on it; either fault
    raises a :class:`~repro.errors.TopologyError` naming the line.
    """
    name = "unnamed"
    nodes = []
    edges = []
    capacities = {}
    #: canonical edge -> (line number, capacity field or None)
    seen: Dict[Tuple[int, int], Tuple[int, Optional[float]]] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "topology":
                name = parts[1] if len(parts) > 1 else "unnamed"
            elif kind == "node":
                nodes.append(int(parts[1]))
            elif kind == "edge":
                u, v = int(parts[1]), int(parts[2])
                capacity = float(parts[3]) if len(parts) > 3 else None
            else:
                raise TopologyError(
                    f"line {line_number}: unknown directive {kind!r}"
                )
        except (IndexError, ValueError) as exc:
            raise TopologyError(f"line {line_number}: malformed line {raw!r}") from exc
        if kind != "edge":
            continue
        if capacity is not None and not 0.0 < capacity < math.inf:
            raise TopologyError(
                f"line {line_number}: capacity must be positive and finite, "
                f"got {parts[3]!r}"
            )
        earlier = seen.setdefault(canonical_edge(u, v), (line_number, capacity))
        if earlier[0] != line_number and earlier[1] != capacity:
            raise TopologyError(
                f"line {line_number}: edge {u} {v} conflicts with line "
                f"{earlier[0]} (capacity {earlier[1]!r}, now {capacity!r})"
            )
        edges.append((u, v))
        if capacity is not None:
            capacities[(u, v)] = capacity
    return Topology(name, nodes, edges, capacities)


def load_topology(path: Union[str, Path]) -> Topology:
    """Read a topology from ``path``."""
    return loads_topology(Path(path).read_text())
