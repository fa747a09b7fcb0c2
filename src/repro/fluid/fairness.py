"""Fairness-aware routing: the utility-maximisation variant of the LP.

§5.3 closes with: *"the objective of our optimization problem in eq. (1)
can be modified to also ensure fairness in routing, by associating an
appropriate utility function with each sender-receiver pair [16]"* (Kelly
proportional fairness).  This module implements that extension.

The proportionally fair objective maximises Σ_ij w_ij · log(f_ij) where
f_ij is pair (i, j)'s delivered rate.  ``linprog`` cannot optimise a log
directly, so we use the standard outer piecewise-linearisation: for each
pair, auxiliary utility u_ij is bounded by tangent cuts of the (concave)
log at a geometric grid of points, making the LP an arbitrarily tight
over-approximation from below.  All routing constraints (demand caps,
capacity c/Δ, perfect balance) are shared with
:func:`repro.fluid.lp.solve_fluid_lp`.

The headline property (verified in tests): max-throughput routing may
starve a pair entirely; proportional fairness gives every routable pair a
strictly positive rate at a modest throughput cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.fluid.paths import path_edges
from repro.network.network import canonical_edge

__all__ = ["FairnessSolution", "solve_fairness_lp", "jain_index"]

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]
Path = Tuple[NodeId, ...]
DirectedEdge = Tuple[NodeId, NodeId]

_EPS = 1e-9


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²); 1 is perfectly fair."""
    values = [max(v, 0.0) for v in values]
    if not values or all(v == 0 for v in values):
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)


@dataclass
class FairnessSolution:
    """Solution of the proportionally fair routing LP."""

    throughput: float
    utility: float
    pair_flows: Dict[Pair, float]
    path_flows: Dict[Tuple[Pair, Path], float] = field(default_factory=dict)

    @property
    def fairness_index(self) -> float:
        """Jain index over per-pair *fractions of demand served*."""
        return jain_index(list(self.pair_flows.values()))


def solve_fairness_lp(
    demands: Mapping[Pair, float],
    path_set: Mapping[Pair, Sequence[Path]],
    capacities: Optional[Mapping[DirectedEdge, float]] = None,
    delta: float = 1.0,
    weights: Optional[Mapping[Pair, float]] = None,
    num_tangents: int = 15,
    min_rate_fraction: float = 1e-3,
) -> FairnessSolution:
    """Maximise Σ w_ij log(f_ij) under the balanced-routing constraints.

    Parameters
    ----------
    weights:
        Per-pair utility weights (default 1).
    num_tangents:
        Tangent cuts per pair; more cuts → tighter log approximation.
    min_rate_fraction:
        The lowest tangent point, as a fraction of the pair's demand
        (log(0) is −∞; rates below this resolution are not distinguished).
    """
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    if num_tangents < 2:
        raise ConfigError(f"num_tangents must be at least 2, got {num_tangents}")
    if not 0 < min_rate_fraction < 1:
        raise ConfigError(
            f"min_rate_fraction must lie in (0, 1), got {min_rate_fraction!r}"
        )
    pairs = sorted((p for p, d in demands.items() if d > 0), key=repr)
    if not pairs:
        return FairnessSolution(0.0, 0.0, {})
    for pair in pairs:
        if pair not in path_set or not path_set[pair]:
            raise ConfigError(f"no paths supplied for demand pair {pair!r}")
    weights = weights or {}

    # Variable layout: [x_p ... , u_ij ...].
    x_index: List[Tuple[Pair, Path]] = []
    pair_cols: Dict[Pair, List[int]] = {}
    for pair in pairs:
        cols = []
        for path in path_set[pair]:
            cols.append(len(x_index))
            x_index.append((pair, tuple(path)))
        pair_cols[pair] = cols
    num_x = len(x_index)
    u_pos = {pair: num_x + i for i, pair in enumerate(pairs)}
    num_vars = num_x + len(pairs)

    directed: List[DirectedEdge] = sorted(
        {e for _, path in x_index for e in path_edges(path)}, key=repr
    )
    edge_pos = {e: i for i, e in enumerate(directed)}
    usage = np.zeros((len(directed), num_x))
    for col, (_, path) in enumerate(x_index):
        for e in path_edges(path):
            usage[edge_pos[e], col] += 1.0
    channels = sorted({canonical_edge(u, v) for u, v in directed}, key=repr)

    a_ub: List[np.ndarray] = []
    b_ub: List[float] = []
    a_eq: List[np.ndarray] = []
    b_eq: List[float] = []

    # Demand caps.
    for pair in pairs:
        row = np.zeros(num_vars)
        row[pair_cols[pair]] = 1.0
        a_ub.append(row)
        b_ub.append(float(demands[pair]))

    # Capacity (eq. 3).
    if capacities is not None:
        for u, v in channels:
            cap = capacities.get((u, v), capacities.get((v, u), math.inf))
            if math.isinf(cap):
                continue
            row = np.zeros(num_vars)
            if (u, v) in edge_pos:
                row[:num_x] += usage[edge_pos[(u, v)]]
            if (v, u) in edge_pos:
                row[:num_x] += usage[edge_pos[(v, u)]]
            a_ub.append(row)
            b_ub.append(cap / delta)

    # Perfect balance (eq. 4).
    for u, v in channels:
        row = np.zeros(num_vars)
        if (u, v) in edge_pos:
            row[:num_x] += usage[edge_pos[(u, v)]]
        if (v, u) in edge_pos:
            row[:num_x] -= usage[edge_pos[(v, u)]]
        a_eq.append(row)
        b_eq.append(0.0)

    # Tangent cuts: u_ij <= log(t) + (f_ij - t)/t for t on a geometric grid.
    for pair in pairs:
        demand = float(demands[pair])
        low = max(demand * min_rate_fraction, 1e-12)
        grid = np.geomspace(low, demand, num_tangents)
        for t in grid:
            # u - f/t <= log(t) - 1
            row = np.zeros(num_vars)
            row[u_pos[pair]] = 1.0
            for col in pair_cols[pair]:
                row[col] = -1.0 / t
            a_ub.append(row)
            b_ub.append(math.log(t) - 1.0)

    objective = np.zeros(num_vars)
    for pair in pairs:
        objective[u_pos[pair]] = -float(weights.get(pair, 1.0))

    bounds = [(0.0, None)] * num_x + [(None, None)] * len(pairs)
    # Imported here: scipy.optimize adds ~24 MB of RSS, and only the LP
    # schemes and analyses ever solve an LP.
    from scipy.optimize import linprog

    result = linprog(
        objective,
        A_ub=np.vstack(a_ub),
        b_ub=np.asarray(b_ub),
        A_eq=np.vstack(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise ReproError(f"fairness LP failed: {result.message}")

    x = result.x[:num_x]
    path_flows = {key: float(v) for key, v in zip(x_index, x) if v > _EPS}
    pair_flows: Dict[Pair, float] = {pair: 0.0 for pair in pairs}
    for (pair, _), v in path_flows.items():
        pair_flows[pair] += v
    utility = float(
        sum(
            weights.get(pair, 1.0) * math.log(max(flow, 1e-12))
            for pair, flow in pair_flows.items()
        )
    )
    return FairnessSolution(
        throughput=float(x.sum()),
        utility=utility,
        pair_flows=pair_flows,
        path_flows=path_flows,
    )
