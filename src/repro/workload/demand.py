"""Demand matrices: estimation from traces and synthetic construction.

Spider (LP) routes against an estimate of the long-term demand matrix
d_{i,j} (§6.1: *"Spider (LP) solves the LP in Eq. (1) once based on the
long-term payment demands"*).  This module estimates demand matrices from
traces and also constructs synthetic demands with a controlled
circulation/DAG mix, which the throughput-bound experiments use: by
Proposition 1, a pure-circulation demand is fully routable under perfect
balance while a DAG demand is not routable at all.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.fluid.circulation import PaymentGraph
from repro.simulator.rng import SeedLike, make_rng
from repro.workload.generator import Trace, TransactionRecord

__all__ = [
    "estimate_demand_matrix",
    "payment_graph_from_records",
    "circulation_demand",
    "dag_demand",
    "mixed_demand",
    "records_from_demand",
    "rotating_records_from_demand",
]

Pair = Tuple[int, int]


def estimate_demand_matrix(
    records: Sequence[TransactionRecord],
    duration: Optional[float] = None,
) -> Dict[Pair, float]:
    """Average payment *rate* (value/second) per source/destination pair.

    ``duration`` defaults to the last arrival time in the trace.  The
    pairs come in order of first appearance, and each pair's value is
    summed in trace order from 0.0, as a loop over the records would.
    """
    trace = Trace.from_records(records)
    if not len(trace):
        return {}
    if duration is None:
        duration = trace.arrival_time.max().item()
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration!r}")
    first, group = trace.pair_groups()
    totals = np.zeros(len(first))
    np.add.at(totals, group, trace.amount)  # unbuffered: row by row, in order
    order = np.argsort(first)
    rows = first[order]
    pairs = zip(trace.source[rows].tolist(), trace.dest[rows].tolist())
    return dict(zip(pairs, (totals[order] / duration).tolist()))


def payment_graph_from_records(
    records: Sequence[TransactionRecord],
    duration: Optional[float] = None,
) -> PaymentGraph:
    """The trace's payment graph H (§5.2.2), weighted by average rate."""
    return PaymentGraph(estimate_demand_matrix(records, duration))


def circulation_demand(
    nodes: Sequence[int],
    total_rate: float,
    num_cycles: int = 5,
    cycle_length: Tuple[int, int] = (3, 5),
    seed: SeedLike = 0,
) -> Dict[Pair, float]:
    """A pure-circulation demand matrix (ν(C*) == total demand).

    Built as a sum of random simple cycles with equal per-cycle rates;
    cycles are sampled over the node set, not the channel topology — the
    payment graph never depends on the topology (§5.2.2).
    """
    nodes = list(nodes)
    if len(nodes) < 3:
        raise ConfigError("need at least 3 nodes for a circulation")
    if total_rate <= 0:
        raise ConfigError(f"total_rate must be positive, got {total_rate!r}")
    if num_cycles <= 0:
        raise ConfigError(f"num_cycles must be positive, got {num_cycles!r}")
    lo, hi = cycle_length
    if not 3 <= lo <= hi or hi > len(nodes):
        raise ConfigError(
            f"cycle_length {cycle_length!r} out of range for {len(nodes)} nodes"
        )
    rng = make_rng(seed)
    demands: Dict[Pair, float] = defaultdict(float)
    total_edges = 0
    cycles: List[List[int]] = []
    for _ in range(num_cycles):
        length = int(rng.integers(lo, hi + 1))
        cycle = list(rng.choice(nodes, size=length, replace=False))
        cycles.append(cycle)
        total_edges += length
    # Uniform per-edge rate so the aggregate hits total_rate exactly.
    per_edge = total_rate / total_edges
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
            demands[(int(a), int(b))] += per_edge
    return dict(demands)


def dag_demand(
    nodes: Sequence[int],
    total_rate: float,
    num_pairs: int = 5,
    seed: SeedLike = 0,
) -> Dict[Pair, float]:
    """A pure-DAG demand matrix (ν(C*) == 0).

    Demand edges always point from lower to higher node rank under a random
    permutation, so no directed cycle can exist.
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ConfigError("need at least 2 nodes for a DAG demand")
    if total_rate <= 0:
        raise ConfigError(f"total_rate must be positive, got {total_rate!r}")
    if num_pairs <= 0:
        raise ConfigError(f"num_pairs must be positive, got {num_pairs!r}")
    rng = make_rng(seed)
    order = list(rng.permutation(nodes))
    rank = {node: i for i, node in enumerate(order)}
    demands: Dict[Pair, float] = defaultdict(float)
    per_pair = total_rate / num_pairs
    for _ in range(num_pairs):
        a, b = rng.choice(nodes, size=2, replace=False)
        a, b = int(a), int(b)
        if rank[a] > rank[b]:
            a, b = b, a
        demands[(a, b)] += per_pair
    return dict(demands)


def mixed_demand(
    nodes: Sequence[int],
    total_rate: float,
    circulation_fraction: float,
    seed: SeedLike = 0,
) -> Dict[Pair, float]:
    """Demand with a controlled circulation share.

    ``circulation_fraction`` of the total rate forms cycles; the remainder
    forms a DAG.  Note the *realised* ν(C*)/total can exceed the requested
    fraction if DAG edges happen to complete cycles with circulation edges;
    the experiments use disjoint node subsets when exact control matters.
    """
    if not 0.0 <= circulation_fraction <= 1.0:
        raise ConfigError(
            f"circulation_fraction must lie in [0, 1], got {circulation_fraction!r}"
        )
    rng = make_rng(seed)
    demands: Dict[Pair, float] = defaultdict(float)
    circ_rate = total_rate * circulation_fraction
    dag_rate = total_rate - circ_rate
    if circ_rate > 0:
        for pair, rate in circulation_demand(nodes, circ_rate, seed=rng).items():
            demands[pair] += rate
    if dag_rate > 0:
        for pair, rate in dag_demand(nodes, dag_rate, seed=rng).items():
            demands[pair] += rate
    return dict(demands)


def records_from_demand(
    demands: Dict[Pair, float],
    duration: float,
    mean_size: float,
    seed: SeedLike = 0,
) -> List[TransactionRecord]:
    """Materialise a demand matrix into a Poisson transaction trace.

    Each pair (i, j) emits transactions of exponential size with the given
    mean, at Poisson rate ``d_ij / mean_size`` transactions per second, so
    the value rate matches the demand matrix in expectation.
    """
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration!r}")
    if mean_size <= 0:
        raise ConfigError(f"mean_size must be positive, got {mean_size!r}")
    rng = make_rng(seed)
    records: List[TransactionRecord] = []
    txn_id = 0
    for (source, dest), rate in sorted(demands.items()):
        if rate <= 0:
            continue
        txn_rate = rate / mean_size
        now = float(rng.exponential(1.0 / txn_rate))
        while now < duration:
            amount = float(rng.exponential(mean_size))
            records.append(
                TransactionRecord(
                    txn_id=txn_id,
                    arrival_time=now,
                    source=source,
                    dest=dest,
                    amount=max(amount, 1e-6),
                )
            )
            txn_id += 1
            now += float(rng.exponential(1.0 / txn_rate))
    records.sort(key=lambda r: r.arrival_time)
    # Re-number so ids follow arrival order.
    records = [
        TransactionRecord(
            txn_id=i,
            arrival_time=r.arrival_time,
            source=r.source,
            dest=r.dest,
            amount=r.amount,
            deadline=r.deadline,
        )
        for i, r in enumerate(records)
    ]
    return records


def rotating_records_from_demand(
    demands: Dict[Pair, float],
    duration: float,
    mean_size: float,
    num_phases: int,
    phase_length: float,
    seed: SeedLike = 0,
) -> List[TransactionRecord]:
    """Non-stationary trace whose *long-run* demand matrix equals ``demands``.

    The demand pairs are partitioned round-robin into ``num_phases`` groups;
    at any moment only one group is active (cycling every ``phase_length``
    seconds), sending at ``num_phases ×`` its average rate so the time
    average still matches ``demands`` exactly.

    This isolates the effect that degrades Spider (LP) on Ripple (§6.2):
    the long-term demand matrix — which the LP is solved against — is
    unchanged, but the *instantaneous* demands deviate from it, so the
    offline path weights are wrong at every point in time.
    """
    if num_phases <= 0:
        raise ConfigError(f"num_phases must be positive, got {num_phases!r}")
    if phase_length <= 0:
        raise ConfigError(f"phase_length must be positive, got {phase_length!r}")
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration!r}")
    if mean_size <= 0:
        raise ConfigError(f"mean_size must be positive, got {mean_size!r}")
    rng = make_rng(seed)
    pairs = sorted(demands)
    records: List[TransactionRecord] = []
    for pair_index, (source, dest) in enumerate(pairs):
        rate = demands[(source, dest)]
        if rate <= 0:
            continue
        group_index = pair_index % num_phases
        boosted_txn_rate = num_phases * rate / mean_size
        # Walk this pair's active windows and emit a Poisson stream inside
        # each one.
        window_start = group_index * phase_length
        while window_start < duration:
            now = window_start + float(rng.exponential(1.0 / boosted_txn_rate))
            window_end = min(window_start + phase_length, duration)
            while now < window_end:
                amount = max(float(rng.exponential(mean_size)), 1e-6)
                records.append(
                    TransactionRecord(
                        txn_id=0,
                        arrival_time=now,
                        source=source,
                        dest=dest,
                        amount=amount,
                    )
                )
                now += float(rng.exponential(1.0 / boosted_txn_rate))
            window_start += num_phases * phase_length
    records.sort(key=lambda r: r.arrival_time)
    return [
        TransactionRecord(
            txn_id=i,
            arrival_time=r.arrival_time,
            source=r.source,
            dest=r.dest,
            amount=r.amount,
        )
        for i, r in enumerate(records)
    ]
