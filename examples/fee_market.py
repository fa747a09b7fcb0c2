"""Router economics: who earns the routing fees, and at what price.

Usage::

    python examples/fee_market.py

§7 asks how routing fees shape the incentives of service providers.  This
example runs the ISP workload at several uniform fee levels under a fixed
sender budget (§4.1's "maximum acceptable routing fee") and prints:

* the fee/throughput trade-off (payments stop once fees blow the budget),
* the aggregate router revenue curve (a Laffer curve: zero at zero price,
  zero again when pricing kills the traffic),
* the top-earning routers with their escrow and fee *yield* — revenue per
  escrowed unit per second, the number a profit-seeking router cares
  about, and the pressure behind hub centralisation.
"""

from __future__ import annotations

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.metrics import (
    IncentiveCollector,
    escrow_by_node,
    fee_yield_report,
    format_table,
    gini,
)
from repro.routing import make_scheme
from repro.topology import isp_topology
from repro.workload.distributions import ripple_isp_sizes
from repro.workload.generator import WorkloadConfig, generate_workload

FEE_RATES = [0.0, 0.002, 0.01, 0.05]
BUDGET = 0.04  # senders abort beyond 4% total fees
DURATION = 30.0


def run_at_rate(fee_rate, topology, records):
    network = topology.build_network(default_capacity=3_000.0, fee_rate=fee_rate)
    initial_escrow = escrow_by_node(network)
    collector = IncentiveCollector()
    runtime = SimulationSession(
        network,
        records,
        make_scheme("spider-waterfilling"),
        RuntimeConfig(end_time=DURATION + 10.0, max_fee_fraction=BUDGET),
        collector=collector,
    )
    metrics = runtime.run()
    return metrics, collector, fee_yield_report(collector, initial_escrow, DURATION)


def main() -> None:
    topology = isp_topology()
    workload = WorkloadConfig(
        num_transactions=1_000,
        arrival_rate=50.0,
        size_distribution=ripple_isp_sizes(),
        seed=13,
    )
    records = generate_workload(list(topology.nodes), workload)

    sweep_rows = []
    last_report = None
    for rate in FEE_RATES:
        metrics, collector, report = run_at_rate(rate, topology, records)
        sweep_rows.append(
            [
                f"{rate:.3f}",
                f"{100 * metrics.success_volume:.1f}",
                f"{sum(collector.router_revenue.values()):.0f}",
                f"{gini([r.revenue for r in report]):.2f}",
            ]
        )
        if rate == 0.01:
            last_report = report
    print(
        format_table(
            ["fee_rate", "volume_%", "revenue", "gini"],
            sweep_rows,
            title=f"fee sweep, sender budget {100 * BUDGET:.0f}% of payment",
        )
    )

    print()
    top = [r for r in last_report if r.revenue > 0][:8]
    print(
        format_table(
            ["router", "revenue", "forwarded", "escrow", "yield (1/s)"],
            [
                [r.node, f"{r.revenue:.1f}", f"{r.forwarded:.0f}",
                 f"{r.escrow:.0f}", f"{r.fee_yield:.2e}"]
                for r in top
            ],
            title="top earners at fee_rate=0.01",
        )
    )
    print()
    print(
        "High-degree core routers forward most of the traffic and collect\n"
        "most of the fees per escrowed coin — the centralisation pressure\n"
        "the paper's incentive discussion (§7) worries about, quantified."
    )


if __name__ == "__main__":
    main()
