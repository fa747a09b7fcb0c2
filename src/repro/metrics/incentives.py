"""Router economics: fee revenue, committed escrow, return on capital.

§7: *"our design does not address incentives and implications for network
service providers that wish to maximize their profits from routing fees"*
— but the substrate carries everything needed to measure them.  Funds
deposited into channels "cannot be used for other economic activities"
(§1), so the natural figure of merit for a router is **fee yield**:
routing-fee revenue per unit of escrowed capital per unit time.

:class:`IncentiveCollector` extends the standard metrics collector with
per-router attribution: when a unit settles, each intermediate router
nets the difference between what it received upstream and what it
forwarded downstream (the unit's per-hop lock amounts carry the §2 fee
schedule).  The report functions aggregate revenue, escrow, yield and a
Gini coefficient of revenue concentration — the quantity behind the
routing-centralisation debate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.payments import TransactionUnit
from repro.metrics.collectors import MetricsCollector
from repro.network.network import PaymentNetwork

__all__ = [
    "IncentiveCollector",
    "RouterEconomics",
    "escrow_by_node",
    "fee_yield_report",
    "gini",
]


class IncentiveCollector(MetricsCollector):
    """Metrics collector that also attributes fees to the earning routers."""

    def __init__(self, throughput_bucket: float = 1.0):
        super().__init__(throughput_bucket)
        #: router -> routing fees earned (settled units only).
        self.router_revenue: Dict[int, float] = defaultdict(float)
        #: router -> value forwarded on behalf of others.
        self.router_forwarded: Dict[int, float] = defaultdict(float)

    def on_unit_settled(self, unit: TransactionUnit, now: float) -> None:
        super().on_unit_settled(unit, now)
        # Intermediate node path[j] received locked[j-1] and forwarded
        # locked[j]; the difference is its fee for this unit.
        path = unit.path
        locked = unit.locked
        for j in range(1, len(path) - 1):
            upstream = locked[j - 1]
            downstream = locked[j]
            router = path[j]
            self.router_forwarded[router] += downstream
            fee = upstream - downstream
            if fee > 0:
                self.router_revenue[router] += fee


@dataclass
class RouterEconomics:
    """One router's profit-and-loss line."""

    node: int
    revenue: float
    forwarded: float
    escrow: float
    #: revenue per escrowed unit per second — the capital-efficiency figure.
    fee_yield: float


def escrow_by_node(network: PaymentNetwork) -> Dict[int, float]:
    """Capital each node currently has committed across its channels.

    Spendable balance plus own in-flight value: both are capital the node
    cannot use elsewhere (§1).  Call on the freshly built network to get
    the *initial* commitment the yield is measured against.
    """
    store = network.state_store
    balances = store.balance_view.reshape(-1).tolist()
    inflight = store.inflight_view.reshape(-1).tolist()
    escrow: Dict[int, float] = defaultdict(float)
    # Direction d's sender holds balance_flat[d] and inflight_flat[d].
    for (node, _), balance, locked in zip(network.directed_edges(), balances, inflight):
        escrow[node] += balance + locked
    return dict(escrow)


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution (0 = equal).

    Returns 0.0 for empty input or an all-zero distribution.
    """
    data = np.asarray(sorted(values), dtype=float)
    if data.size == 0:
        return 0.0
    if np.any(data < 0):
        raise ValueError("gini is defined for non-negative values")
    total = data.sum()
    if total <= 0:
        return 0.0
    n = data.size
    # Standard formula over sorted data: G = (2 Σ i·x_i) / (n Σ x) − (n+1)/n.
    indexed = np.arange(1, n + 1) * data
    # Clamp: rounding can land an exactly-equal distribution at -1e-16.
    return float(max(0.0, 2.0 * indexed.sum() / (n * total) - (n + 1.0) / n))


def fee_yield_report(
    collector: IncentiveCollector,
    initial_escrow: Dict[int, float],
    duration: float,
) -> List[RouterEconomics]:
    """Per-router economics, sorted by revenue (highest first).

    ``initial_escrow`` should come from :func:`escrow_by_node` on the
    network *before* the run; ``duration`` is the run length in seconds.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration!r}")
    rows = []
    for node, escrow in initial_escrow.items():
        revenue = collector.router_revenue.get(node, 0.0)
        forwarded = collector.router_forwarded.get(node, 0.0)
        fee_yield = revenue / (escrow * duration) if escrow > 0 else 0.0
        rows.append(
            RouterEconomics(
                node=node,
                revenue=revenue,
                forwarded=forwarded,
                escrow=escrow,
                fee_yield=fee_yield,
            )
        )
    rows.sort(key=lambda r: (-r.revenue, r.node))
    return rows
