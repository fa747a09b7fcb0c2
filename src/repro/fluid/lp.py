"""The fluid-model linear programs of §5.2.

Three related LPs over per-path rate variables x_p ≥ 0:

* **Balanced routing** (eqs. 1–5): maximise total throughput subject to
  demand caps, channel capacity c_e/Δ, and *perfect balance* — equal flow in
  the two directions of every channel.
* **Routing with on-chain rebalancing** (eqs. 6–11): adds per-direction
  rebalancing rates b_(u,v) ≥ 0 that relax the balance constraint, charged at
  γ per unit in the objective.
* **Throughput under a rebalancing budget** t(B) (eqs. 12–18): maximise
  throughput with Σ b ≤ B; Proposition of §5.2.3 shows t(·) is concave and
  non-decreasing, which the test-suite verifies on random instances.

All LPs are solved with HiGHS via :func:`scipy.optimize.linprog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.fluid.paths import path_edges
from repro.network.network import canonical_edge

__all__ = [
    "FluidSolution",
    "solve_fluid_lp",
    "max_balanced_throughput",
    "max_unbalanced_throughput",
    "solve_rebalancing_lp",
    "throughput_with_budget",
    "throughput_vs_rebalancing",
]

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]
Path = Tuple[NodeId, ...]
DirectedEdge = Tuple[NodeId, NodeId]

_EPS = 1e-9

_BALANCE_MODES = ("none", "equality", "rebalance", "budget")


@dataclass
class FluidSolution:
    """Solution of a fluid LP.

    Attributes
    ----------
    throughput:
        Σ_p x_p — total payment rate delivered.
    objective:
        LP objective (throughput − γ·Σb for the rebalancing LP, otherwise
        equal to ``throughput``).
    path_flows:
        ``{(pair, path): rate}`` for strictly positive rates.
    pair_flows:
        ``{pair: delivered rate}``.
    edge_flows:
        Directed per-channel flows ``{(u, v): rate}``.
    rebalancing:
        Per-direction on-chain rebalancing rates ``{(u, v): b}``.
    """

    throughput: float
    objective: float
    path_flows: Dict[Tuple[Pair, Path], float] = field(default_factory=dict)
    pair_flows: Dict[Pair, float] = field(default_factory=dict)
    edge_flows: Dict[DirectedEdge, float] = field(default_factory=dict)
    rebalancing: Dict[DirectedEdge, float] = field(default_factory=dict)

    @property
    def total_rebalancing(self) -> float:
        """Σ b_(u,v) — total on-chain rebalancing rate."""
        return float(sum(self.rebalancing.values()))

    def demand_fraction(self, demands: Mapping[Pair, float]) -> float:
        """Throughput as a fraction of total demand."""
        total = float(sum(demands.values()))
        if total <= 0:
            return 0.0
        return self.throughput / total

    def flows_for_pair(self, pair: Pair) -> Dict[Path, float]:
        """Per-path flow map for one source/destination pair."""
        return {
            path: rate
            for (p, path), rate in self.path_flows.items()
            if p == pair
        }


def solve_fluid_lp(
    demands: Mapping[Pair, float],
    path_set: Mapping[Pair, Sequence[Path]],
    capacities: Optional[Mapping[DirectedEdge, float]] = None,
    delta: float = 1.0,
    balance: str = "equality",
    gamma: float = 0.0,
    budget: Optional[float] = None,
) -> FluidSolution:
    """Build and solve one of the §5.2 LPs.

    Parameters
    ----------
    demands:
        ``{(i, j): d_ij}`` with positive rates.
    path_set:
        ``{(i, j): [path, ...]}``; every demand pair must have at least one
        path.  Paths are node tuples.
    capacities:
        Total channel funds c_e keyed by *canonical* undirected edge.  Pairs
        absent from the map are treated as unconstrained.  ``None`` disables
        capacity constraints entirely (the unlimited-capacity setting of
        Prop. 1).
    delta:
        Average confirmation delay Δ; a channel supports rate ≤ c_e/Δ
        (eq. 3).
    balance:
        ``"none"`` — drop eq. 4 entirely;
        ``"equality"`` — perfect balance (eqs. 1–5);
        ``"rebalance"`` — eqs. 6–11 with cost ``gamma`` per unit of b;
        ``"budget"`` — eqs. 12–18 with Σ b ≤ ``budget``.
    """
    if balance not in _BALANCE_MODES:
        raise ConfigError(f"balance must be one of {_BALANCE_MODES}, got {balance!r}")
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    if balance == "budget":
        if budget is None or budget < 0:
            raise ConfigError("budget mode requires a non-negative budget")
    if balance == "rebalance" and gamma < 0:
        raise ConfigError(f"gamma must be non-negative, got {gamma!r}")

    pairs = sorted((p for p, d in demands.items() if d > 0), key=repr)
    if not pairs:
        return FluidSolution(throughput=0.0, objective=0.0)
    for pair in pairs:
        if pair not in path_set or not path_set[pair]:
            raise ConfigError(f"no paths supplied for demand pair {pair!r}")

    # ------------------------------------------------------------------
    # Variable layout: x variables first, then (optionally) b variables.
    # ------------------------------------------------------------------
    x_index: List[Tuple[Pair, Path]] = []
    for pair in pairs:
        for path in path_set[pair]:
            if len(path) < 2:
                raise ConfigError(f"degenerate path {path!r} for pair {pair!r}")
            x_index.append((pair, tuple(path)))
    num_x = len(x_index)

    directed_edges: List[DirectedEdge] = sorted(
        {edge for _, path in x_index for edge in path_edges(path)}, key=repr
    )
    edge_pos = {e: i for i, e in enumerate(directed_edges)}
    undirected: List[DirectedEdge] = sorted(
        {canonical_edge(u, v) for (u, v) in directed_edges}, key=repr
    )

    with_b = balance in ("rebalance", "budget")
    b_edges: List[DirectedEdge] = []
    if with_b:
        # One b variable per direction of every channel touched by a path.
        for u, v in undirected:
            b_edges.append((u, v))
            b_edges.append((v, u))
    num_b = len(b_edges)
    b_pos = {e: num_x + i for i, e in enumerate(b_edges)}
    num_vars = num_x + num_b

    # Per-variable incidence: which directed edges each path crosses.
    usage = np.zeros((len(directed_edges), num_x))
    for col, (_, path) in enumerate(x_index):
        for edge in path_edges(path):
            usage[edge_pos[edge], col] += 1.0

    a_ub_rows: List[np.ndarray] = []
    b_ub: List[float] = []
    a_eq_rows: List[np.ndarray] = []
    b_eq: List[float] = []

    # Demand constraints (eq. 2).
    pair_cols: Dict[Pair, List[int]] = {}
    for col, (pair, _) in enumerate(x_index):
        pair_cols.setdefault(pair, []).append(col)
    for pair in pairs:
        row = np.zeros(num_vars)
        row[pair_cols[pair]] = 1.0
        a_ub_rows.append(row)
        b_ub.append(float(demands[pair]))

    # Capacity constraints (eq. 3).
    if capacities is not None:
        for u, v in undirected:
            cap = capacities.get((u, v), capacities.get((v, u), math.inf))
            if math.isinf(cap):
                continue
            row = np.zeros(num_vars)
            if (u, v) in edge_pos:
                row[:num_x] += usage[edge_pos[(u, v)]]
            if (v, u) in edge_pos:
                row[:num_x] += usage[edge_pos[(v, u)]]
            a_ub_rows.append(row)
            b_ub.append(cap / delta)

    # Balance constraints (eq. 4 / eq. 9).
    if balance == "equality":
        for u, v in undirected:
            row = np.zeros(num_vars)
            if (u, v) in edge_pos:
                row[:num_x] += usage[edge_pos[(u, v)]]
            if (v, u) in edge_pos:
                row[:num_x] -= usage[edge_pos[(v, u)]]
            a_eq_rows.append(row)
            b_eq.append(0.0)
    elif with_b:
        for u, v in undirected:
            for a, b in ((u, v), (v, u)):
                row = np.zeros(num_vars)
                if (a, b) in edge_pos:
                    row[:num_x] += usage[edge_pos[(a, b)]]
                if (b, a) in edge_pos:
                    row[:num_x] -= usage[edge_pos[(b, a)]]
                row[b_pos[(a, b)]] = -1.0
                a_ub_rows.append(row)
                b_ub.append(0.0)

    # Rebalancing budget (eq. 16).
    if balance == "budget":
        row = np.zeros(num_vars)
        row[num_x:] = 1.0
        a_ub_rows.append(row)
        b_ub.append(float(budget))

    # Objective: max Σx − γΣb  →  min −Σx + γΣb.
    objective = np.zeros(num_vars)
    objective[:num_x] = -1.0
    if balance == "rebalance":
        objective[num_x:] = gamma

    # Imported here: scipy.optimize adds ~24 MB of RSS, and only the LP
    # schemes and analyses ever solve an LP.
    from scipy.optimize import linprog

    result = linprog(
        objective,
        A_ub=np.vstack(a_ub_rows) if a_ub_rows else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.vstack(a_eq_rows) if a_eq_rows else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=[(0.0, None)] * num_vars,
        method="highs",
    )
    if not result.success:  # pragma: no cover - feasible by construction (x = 0)
        raise ReproError(f"fluid LP failed: {result.message}")

    x = result.x[:num_x]
    throughput = float(x.sum())
    path_flows = {
        key: float(v) for key, v in zip(x_index, x) if v > _EPS
    }
    pair_flows: Dict[Pair, float] = {}
    for (pair, _), v in path_flows.items():
        pair_flows[pair] = pair_flows.get(pair, 0.0) + v
    edge_flows: Dict[DirectedEdge, float] = {}
    for (_, path), v in path_flows.items():
        for edge in path_edges(path):
            edge_flows[edge] = edge_flows.get(edge, 0.0) + v
    rebalancing = {}
    if with_b:
        for e, pos in b_pos.items():
            value = float(result.x[pos])
            if value > _EPS:
                rebalancing[e] = value
    return FluidSolution(
        throughput=throughput,
        objective=float(-result.fun),
        path_flows=path_flows,
        pair_flows=pair_flows,
        edge_flows=edge_flows,
        rebalancing=rebalancing,
    )


def max_balanced_throughput(
    demands: Mapping[Pair, float],
    path_set: Mapping[Pair, Sequence[Path]],
    capacities: Optional[Mapping[DirectedEdge, float]] = None,
    delta: float = 1.0,
) -> FluidSolution:
    """Eqs. 1–5: maximum throughput under perfect balance."""
    return solve_fluid_lp(demands, path_set, capacities, delta, balance="equality")


def max_unbalanced_throughput(
    demands: Mapping[Pair, float],
    path_set: Mapping[Pair, Sequence[Path]],
    capacities: Optional[Mapping[DirectedEdge, float]] = None,
    delta: float = 1.0,
) -> FluidSolution:
    """Capacity-only throughput bound (balance constraints dropped)."""
    return solve_fluid_lp(demands, path_set, capacities, delta, balance="none")


def solve_rebalancing_lp(
    demands: Mapping[Pair, float],
    path_set: Mapping[Pair, Sequence[Path]],
    capacities: Optional[Mapping[DirectedEdge, float]],
    gamma: float,
    delta: float = 1.0,
) -> FluidSolution:
    """Eqs. 6–11: throughput minus γ-weighted on-chain rebalancing cost."""
    return solve_fluid_lp(
        demands, path_set, capacities, delta, balance="rebalance", gamma=gamma
    )


def throughput_with_budget(
    demands: Mapping[Pair, float],
    path_set: Mapping[Pair, Sequence[Path]],
    capacities: Optional[Mapping[DirectedEdge, float]],
    budget: float,
    delta: float = 1.0,
) -> FluidSolution:
    """Eqs. 12–18: t(B), maximum throughput with total rebalancing ≤ B."""
    return solve_fluid_lp(
        demands, path_set, capacities, delta, balance="budget", budget=budget
    )


def throughput_vs_rebalancing(
    demands: Mapping[Pair, float],
    path_set: Mapping[Pair, Sequence[Path]],
    capacities: Optional[Mapping[DirectedEdge, float]],
    budgets: Sequence[float],
    delta: float = 1.0,
) -> List[Tuple[float, float]]:
    """Sample the t(B) curve at the given budgets.

    Returns ``[(B, t(B)), ...]`` in input order.  §5.2.3 proves t is
    non-decreasing and concave; property tests assert both on the output.
    """
    curve = []
    for budget in budgets:
        solution = throughput_with_budget(demands, path_set, capacities, budget, delta)
        curve.append((float(budget), solution.throughput))
    return curve
