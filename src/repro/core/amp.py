"""Atomic multi-path (AMP) Spider payments.

§4.1: *"Spider is also compatible with atomic payments using
recently-proposed mechanisms like Atomic Multi-Path Payments (AMP) that
split a payment over multiple paths while guaranteeing atomicity.  The idea
is to derive the keys for all the transaction units of a payment from a
single 'base key', and use additive secret sharing so the receiver cannot
unlock any of the transaction units until she has received all of them."*

:class:`AmpWaterfillingScheme` is the atomic twin of Spider (Waterfilling):
it allocates the payment across the k edge-disjoint paths by waterfilling
the *probed* bottlenecks, but locks all shares all-or-nothing (what the
base key guarantees), with a single attempt.  Comparing it against the
non-atomic variant quantifies exactly what atomicity costs
(``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["AmpWaterfillingScheme", "waterfill_allocation"]

_EPS = 1e-9


def waterfill_allocation(
    amount: float,
    capacities: List[float],
) -> List[float]:
    """Split ``amount`` across paths by waterfilling their capacities.

    Fills the highest-capacity path down to the level of the next one, then
    both, and so on (§5.3.1) — equivalently: find the water level λ such
    that Σ_i max(c_i − λ, 0) = amount and allocate a_i = max(c_i − λ, 0),
    falling back to "everything fits" when Σ c_i ≤ amount.

    Returns per-path allocations (same order as ``capacities``); they sum
    to ``min(amount, Σ c_i)``.
    """
    if amount <= 0:
        return [0.0] * len(capacities)
    total = sum(capacities)
    if total <= amount:
        return list(capacities)
    # Binary search the water level on the sorted capacity values.
    order = sorted(range(len(capacities)), key=lambda i: -capacities[i])
    allocation = [0.0] * len(capacities)
    remaining = amount
    level = capacities[order[0]]
    for rank, index in enumerate(order):
        if remaining <= _EPS:
            break
        current = capacities[index]
        next_level = capacities[order[rank + 1]] if rank + 1 < len(order) else 0.0
        # Lower the level from `current` toward `next_level` across the
        # first (rank+1) paths.
        active = rank + 1
        drop = min(level - next_level, remaining / active)
        for j in order[: rank + 1]:
            allocation[j] += drop
        remaining -= drop * active
        level -= drop
        if level > next_level + _EPS and remaining <= _EPS:
            break
    # Numerical crumbs go to the largest path.
    if remaining > _EPS:
        allocation[order[0]] += remaining
    return allocation


class AmpWaterfillingScheme(RoutingScheme):
    """Waterfilling allocation, delivered atomically (AMP, §4.1)."""

    name = "spider-amp"
    atomic = True
    num_paths = 4

    def __init__(self, num_paths: int = num_paths):
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        self.num_paths = num_paths

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        handle = runtime.path_handle(payment.source, payment.dest, self.num_paths)
        if handle is None:
            runtime.fail_payment(payment)
            return
        # One batched probe of the pair's compiled handle, refreshed
        # incrementally across payments.
        capacities = runtime.network.path_table.bottleneck_many(handle)
        if sum(capacities) < payment.amount - 1e-6:
            runtime.fail_payment(payment)
            return
        shares = waterfill_allocation(payment.amount, capacities)
        allocations = [
            (cpath, share)
            for cpath, share in zip(handle.cpaths, shares)
            if share > _EPS
        ]
        if not runtime.send_atomic(payment, allocations):
            runtime.fail_payment(payment)
