"""Fee economics: routing fees vs throughput vs router income (§7).

§4.1 gives senders a "maximum acceptable routing fee" and §7 asks how
service providers should price routing.  This bench sweeps the uniform
proportional fee rate on the ISP topology with a fixed per-payment fee
budget, and measures the three quantities the discussion turns on:

* delivered volume (fees above the budget suppress payments),
* aggregate router revenue (price × surviving traffic — the Laffer-style
  trade-off: zero at zero price, zero again when pricing kills traffic),
* revenue concentration (Gini) across routers.

Run with::

    pytest benchmarks/bench_fee_economics.py --benchmark-only -s
"""

from __future__ import annotations

from benchmarks.conftest import run_once
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

FEE_RATES = [0.0, 0.001, 0.005, 0.02, 0.08]
FEE_BUDGET_FRACTION = 0.05  # senders abort beyond 5% total fees
DURATION = 30.0


def _run_point(fee_rate: float, topology, records):
    network = topology.build_network(
        default_capacity=3_000.0, fee_rate=fee_rate
    )
    initial_escrow = escrow_by_node(network)
    collector = IncentiveCollector()
    runtime = SimulationSession(
        network,
        records,
        make_scheme("spider-waterfilling"),
        RuntimeConfig(end_time=DURATION + 10.0,
                      max_fee_fraction=FEE_BUDGET_FRACTION),
        collector=collector,
    )
    metrics = runtime.run()
    report = fee_yield_report(collector, initial_escrow, DURATION)
    return metrics, collector, report


def test_fee_sweep(benchmark):
    """Volume falls and revenue rises-then-falls as fees climb."""
    topology = isp_topology()
    workload = WorkloadConfig(
        num_transactions=1_000,
        arrival_rate=50.0,
        size_distribution=ripple_isp_sizes(),
        seed=31,
    )
    records = generate_workload(list(topology.nodes), workload)

    def run():
        return [(_rate, *_run_point(_rate, topology, records)) for _rate in FEE_RATES]

    results = run_once(benchmark, run)

    rows = []
    for rate, metrics, collector, report in results:
        revenue = sum(collector.router_revenue.values())
        concentration = gini([r.revenue for r in report])
        rows.append(
            [
                f"{rate:.3f}",
                f"{100 * metrics.success_volume:.1f}",
                f"{100 * metrics.success_ratio:.1f}",
                f"{revenue:.0f}",
                f"{concentration:.2f}",
            ]
        )
    print()
    print(
        format_table(
            ["fee_rate", "volume_%", "ratio_%", "router_revenue", "gini"],
            rows,
            title=(
                "uniform proportional fees, sender budget "
                f"{100 * FEE_BUDGET_FRACTION:.0f}% of payment"
            ),
        )
    )

    volumes = [m.success_volume for _, m, _, _ in results]
    revenues = [sum(c.router_revenue.values()) for _, _, c, _ in results]

    # Fee-free routing earns nothing; any positive fee earns something.
    assert revenues[0] == 0.0
    assert revenues[1] > 0.0
    # Delivered volume is (weakly) decreasing in the fee level.
    for lo_rate, hi_rate in zip(volumes[1:], volumes):
        assert lo_rate <= hi_rate + 0.02
    # The budget bites: at the top rate (0.08 > 5% budget for multi-hop
    # payments) volume must drop decisively below the fee-free level.
    assert volumes[-1] < volumes[0] - 0.10
    # Laffer shape: revenue at the punitive rate is below the peak.
    assert max(revenues) > revenues[-1]


def test_fee_yield_favours_central_routers(benchmark):
    """Well-connected routers earn a higher return on escrow — the §7
    centralisation pressure, measured."""
    topology = isp_topology()
    workload = WorkloadConfig(
        num_transactions=800,
        arrival_rate=40.0,
        size_distribution=ripple_isp_sizes(),
        seed=37,
    )
    records = generate_workload(list(topology.nodes), workload)

    def run():
        return _run_point(0.005, topology, records)

    metrics, collector, report = run_once(benchmark, run)
    adjacency = topology.adjacency()
    degree = {node: len(neigh) for node, neigh in adjacency.items()}
    earners = [r for r in report if r.revenue > 0]
    assert earners, "somebody must earn fees at a positive rate"
    top = earners[: max(1, len(earners) // 4)]
    bottom = earners[-max(1, len(earners) // 4):]
    mean_degree_top = sum(degree[r.node] for r in top) / len(top)
    mean_degree_bottom = sum(degree[r.node] for r in bottom) / len(bottom)
    print(
        f"\nmean degree of top-quartile earners: {mean_degree_top:.1f}, "
        f"bottom quartile: {mean_degree_bottom:.1f}"
    )
    assert mean_degree_top >= mean_degree_bottom
