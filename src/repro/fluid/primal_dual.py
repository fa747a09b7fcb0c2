"""The decentralized primal-dual algorithm of §5.3 (fluid iterates).

Dual decomposition of the rebalancing LP (eqs. 6–11) yields per-edge prices
and local update rules (eqs. 21–24):

* capacity price λ_(u,v) ≥ 0 per channel — rises when total two-way flow
  exceeds c/Δ;
* imbalance price µ_(u,v) ≥ 0 per *direction* — rises when the (u, v) flow
  exceeds the (v, u) flow by more than the on-chain deposit rate b_(u,v);
* path price z_p = Σ_(u,v)∈p (λ + µ_(u,v) − µ_(v,u));
* sources update x_p ← Proj_X [x_p + α(1 − z_p)] with X the demand-capped
  simplex of the pair;
* edges update b_(u,v) ← [b_(u,v) + β(µ_(u,v) − γ)]₊.

For suitable step sizes the iterates converge to the LP optimum; the test
suite checks that against :func:`repro.fluid.lp.solve_fluid_lp` on the
paper's example and random instances.  Setting ``beta = 0`` with b ≡ 0
recovers the pure balanced-routing algorithm (the paper's "special case").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.fluid.paths import path_edges
from repro.network.network import canonical_edge

__all__ = ["PrimalDualConfig", "PrimalDualResult", "solve_primal_dual", "project_capped_simplex"]

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]
Path = Tuple[NodeId, ...]
DirectedEdge = Tuple[NodeId, NodeId]


def project_capped_simplex(x: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {x ≥ 0, Σx ≤ cap}.

    If clipping to the positive orthant already satisfies the sum cap, that
    is the projection; otherwise project onto the simplex {x ≥ 0, Σx = cap}
    by the standard thresholding algorithm.
    """
    if cap < 0:
        raise ConfigError(f"cap must be non-negative, got {cap!r}")
    clipped = np.maximum(x, 0.0)
    if clipped.sum() <= cap:
        return clipped
    if cap == 0.0:
        return np.zeros_like(clipped)
    # Sort-based simplex projection (Held et al.): find θ with
    # Σ max(x - θ, 0) = cap.
    sorted_desc = np.sort(x)[::-1]
    cumulative = np.cumsum(sorted_desc) - cap
    indices = np.arange(1, x.size + 1)
    mask = sorted_desc - cumulative / indices > 0
    rho = int(indices[mask][-1])
    theta = cumulative[rho - 1] / rho
    return np.maximum(x - theta, 0.0)


@dataclass
class PrimalDualConfig:
    """Step sizes and iteration control for the §5.3 algorithm.

    Attributes map 1:1 onto the paper's constants: ``alpha`` (rate step,
    eq. 21), ``beta`` (rebalancing step, eq. 22), ``eta`` (capacity-price
    step, eq. 23), ``kappa`` (imbalance-price step, eq. 24), ``gamma``
    (on-chain rebalancing cost, eq. 6).
    """

    alpha: float = 0.05
    beta: float = 0.01
    eta: float = 0.01
    kappa: float = 0.01
    gamma: float = math.inf
    iterations: int = 20_000
    tolerance: float = 1e-6
    averaging_fraction: float = 0.25

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "eta", "kappa"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.iterations <= 0:
            raise ConfigError("iterations must be positive")
        if not 0 < self.averaging_fraction <= 1:
            raise ConfigError("averaging_fraction must lie in (0, 1]")


@dataclass
class PrimalDualResult:
    """Outcome of the primal-dual iterations.

    ``path_flows``/``rebalancing`` are tail-averaged iterates (the standard
    way to read a solution out of a saddle-point method); ``throughput`` is
    their total; ``history`` records the instantaneous throughput per
    iteration for convergence plots.
    """

    throughput: float
    objective: float
    path_flows: Dict[Tuple[Pair, Path], float]
    rebalancing: Dict[DirectedEdge, float]
    capacity_prices: Dict[DirectedEdge, float]
    imbalance_prices: Dict[DirectedEdge, float]
    history: List[float] = field(default_factory=list)
    iterations_run: int = 0

    @property
    def total_rebalancing(self) -> float:
        """Σ b at the averaged solution."""
        return float(sum(self.rebalancing.values()))


def solve_primal_dual(
    demands: Mapping[Pair, float],
    path_set: Mapping[Pair, Sequence[Path]],
    capacities: Optional[Mapping[DirectedEdge, float]] = None,
    delta: float = 1.0,
    config: Optional[PrimalDualConfig] = None,
) -> PrimalDualResult:
    """Run the decentralized algorithm of §5.3 to (approximate) convergence.

    Parameters mirror :func:`repro.fluid.lp.solve_fluid_lp`; ``config.gamma
    = inf`` disables on-chain rebalancing (b stays 0), the "special case"
    noted at the end of §5.3.
    """
    config = config or PrimalDualConfig()
    pairs = sorted((p for p, d in demands.items() if d > 0), key=repr)
    if not pairs:
        return PrimalDualResult(0.0, 0.0, {}, {}, {}, {}, [], 0)

    x_index: List[Tuple[Pair, Path]] = []
    pair_slices: Dict[Pair, Tuple[int, int]] = {}
    for pair in pairs:
        paths = list(path_set.get(pair, ()))
        if not paths:
            raise ConfigError(f"no paths supplied for demand pair {pair!r}")
        start = len(x_index)
        for path in paths:
            x_index.append((pair, tuple(path)))
        pair_slices[pair] = (start, len(x_index))
    num_x = len(x_index)

    directed: List[DirectedEdge] = sorted(
        {e for _, path in x_index for e in path_edges(path)}, key=repr
    )
    channels: List[DirectedEdge] = sorted(
        {canonical_edge(u, v) for u, v in directed}, key=repr
    )
    channel_pos = {e: i for i, e in enumerate(channels)}
    dir_list: List[DirectedEdge] = []
    for u, v in channels:
        dir_list.append((u, v))
        dir_list.append((v, u))
    dir_pos = {e: i for i, e in enumerate(dir_list)}

    # Incidence matrices: per directed edge, which x columns use it.
    usage = np.zeros((len(dir_list), num_x))
    for col, (_, path) in enumerate(x_index):
        for e in path_edges(path):
            usage[dir_pos[e], col] += 1.0

    cap_vec = np.full(len(channels), math.inf)
    if capacities is not None:
        for (u, v), idx in channel_pos.items():
            cap = capacities.get((u, v), capacities.get((v, u), math.inf))
            cap_vec[idx] = cap / delta

    x = np.zeros(num_x)
    b = np.zeros(len(dir_list))
    lam = np.zeros(len(channels))
    mu = np.zeros(len(dir_list))

    with_rebalancing = math.isfinite(config.gamma)
    demand_vec = {pair: float(demands[pair]) for pair in pairs}

    tail_start = int(config.iterations * (1.0 - config.averaging_fraction))
    x_accumulator = np.zeros(num_x)
    b_accumulator = np.zeros(len(dir_list))
    tail_count = 0
    history: List[float] = []
    previous_x = x.copy()
    iterations_run = config.iterations

    for iteration in range(config.iterations):
        # --- prices → path prices (z_p) --------------------------------
        # z over directed edges: λ(channel) + µ(u,v) − µ(v,u)
        z_dir = np.empty(len(dir_list))
        for i, (u, v) in enumerate(dir_list):
            j = dir_pos[(v, u)]
            z_dir[i] = lam[channel_pos[canonical_edge(u, v)]] + mu[i] - mu[j]
        z_path = usage.T @ z_dir

        # --- primal step (eq. 21): per-pair projected gradient ----------
        x = x + config.alpha * (1.0 - z_path)
        for pair in pairs:
            start, end = pair_slices[pair]
            x[start:end] = project_capped_simplex(x[start:end], demand_vec[pair])

        # --- rebalancing step (eq. 22) ----------------------------------
        if with_rebalancing and config.beta > 0:
            b = np.maximum(b + config.beta * (mu - config.gamma), 0.0)

        # --- dual step (eqs. 23–24) --------------------------------------
        flow_dir = usage @ x
        for idx, (u, v) in enumerate(channels):
            if math.isfinite(cap_vec[idx]):
                i, j = dir_pos[(u, v)], dir_pos[(v, u)]
                lam[idx] = max(
                    0.0,
                    lam[idx] + config.eta * (flow_dir[i] + flow_dir[j] - cap_vec[idx]),
                )
        for i, (u, v) in enumerate(dir_list):
            j = dir_pos[(v, u)]
            mu[i] = max(0.0, mu[i] + config.kappa * (flow_dir[i] - flow_dir[j] - b[i]))

        history.append(float(x.sum()))
        if iteration >= tail_start:
            x_accumulator += x
            b_accumulator += b
            tail_count += 1
        if iteration % 100 == 99:
            if np.max(np.abs(x - previous_x)) < config.tolerance:
                iterations_run = iteration + 1
                if tail_count == 0:
                    x_accumulator, b_accumulator, tail_count = x.copy(), b.copy(), 1
                break
            previous_x = x.copy()

    if tail_count == 0:  # pragma: no cover - only if iterations < 4
        x_accumulator, b_accumulator, tail_count = x, b, 1
    x_avg = x_accumulator / tail_count
    b_avg = b_accumulator / tail_count

    path_flows = {
        key: float(v) for key, v in zip(x_index, x_avg) if v > 1e-9
    }
    rebalancing = {
        dir_list[i]: float(v) for i, v in enumerate(b_avg) if v > 1e-9
    }
    throughput = float(x_avg.sum())
    objective = throughput - (
        config.gamma * float(b_avg.sum()) if with_rebalancing else 0.0
    )
    return PrimalDualResult(
        throughput=throughput,
        objective=objective,
        path_flows=path_flows,
        rebalancing=rebalancing,
        capacity_prices={channels[i]: float(v) for i, v in enumerate(lam)},
        imbalance_prices={dir_list[i]: float(v) for i, v in enumerate(mu)},
        history=history,
        iterations_run=iterations_run,
    )
