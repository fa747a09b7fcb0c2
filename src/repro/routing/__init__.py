"""Routing schemes: the paper's baselines plus shared infrastructure."""

from repro.routing.backpressure import CelerScheme
from repro.routing.base import RoutingScheme
from repro.routing.embedding import PrefixEmbedding, SpeedyMurmursScheme, tree_distance
from repro.routing.landmark import LandmarkScheme, contract_loops
from repro.routing.lnd import LndScheme
from repro.routing.max_flow import MaxFlowScheme, decompose_flow, edmonds_karp
from repro.routing.registry import (
    SCHEME_FACTORIES,
    available_schemes,
    make_scheme,
    register_scheme,
)
from repro.routing.shortest_path import ShortestPathScheme

__all__ = [
    "CelerScheme",
    "LandmarkScheme",
    "LndScheme",
    "MaxFlowScheme",
    "PrefixEmbedding",
    "RoutingScheme",
    "SCHEME_FACTORIES",
    "ShortestPathScheme",
    "SpeedyMurmursScheme",
    "available_schemes",
    "contract_loops",
    "decompose_flow",
    "edmonds_karp",
    "make_scheme",
    "register_scheme",
    "tree_distance",
]
