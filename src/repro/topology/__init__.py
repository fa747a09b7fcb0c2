"""Topology generators: evaluation graphs, canonical graphs, serialisation."""

from repro.topology.base import Topology
from repro.topology.examples import (
    FIG4_DEMANDS,
    FIG4_EDGES,
    FIG4_MAX_CIRCULATION,
    FIG4_OPTIMAL_THROUGHPUT,
    FIG4_SHORTEST_PATH_THROUGHPUT,
    FIG4_TOTAL_DEMAND,
    fig4_payment_graph,
    fig4_topology,
)
from repro.topology.generators import (
    balanced_tree_topology,
    complete_topology,
    cycle_topology,
    erdos_renyi_topology,
    grid_topology,
    line_topology,
    scale_free_topology,
    small_world_topology,
    star_topology,
)
from repro.topology.io import (
    dump_topology,
    dumps_topology,
    load_topology,
    loads_topology,
)
from repro.topology.isp import ISP_NUM_EDGES, ISP_NUM_NODES, isp_topology
from repro.topology.partition import GraphPartition, partition_adjacency
from repro.topology.ripple import (
    RIPPLE_EDGE_NODE_RATIO,
    RIPPLE_PRESETS,
    ripple_topology,
)

__all__ = [
    "FIG4_DEMANDS",
    "FIG4_EDGES",
    "FIG4_MAX_CIRCULATION",
    "FIG4_OPTIMAL_THROUGHPUT",
    "FIG4_SHORTEST_PATH_THROUGHPUT",
    "FIG4_TOTAL_DEMAND",
    "ISP_NUM_EDGES",
    "ISP_NUM_NODES",
    "RIPPLE_EDGE_NODE_RATIO",
    "RIPPLE_PRESETS",
    "GraphPartition",
    "Topology",
    "balanced_tree_topology",
    "complete_topology",
    "cycle_topology",
    "dump_topology",
    "dumps_topology",
    "erdos_renyi_topology",
    "fig4_payment_graph",
    "fig4_topology",
    "grid_topology",
    "isp_topology",
    "line_topology",
    "load_topology",
    "loads_topology",
    "partition_adjacency",
    "ripple_topology",
    "scale_free_topology",
    "small_world_topology",
    "star_topology",
]
