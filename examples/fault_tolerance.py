"""Fault tolerance: routing payments through a churning network.

Usage::

    python examples/fault_tolerance.py

§7 leaves protocol robustness to future work; this example measures it.
We run the same ISP workload three times — fault-free, under random node
churn, and through a scheduled blanket outage — and compare how Spider
(Waterfilling, multipath + retry-from-queue) and the deployed LND
baseline (single path, atomic) cope.
"""

from __future__ import annotations

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.metrics import format_table
from repro.network.faults import FaultSchedule, NodeOutage, random_churn_schedule
from repro.routing import make_scheme
from repro.topology import isp_topology
from repro.workload.distributions import ripple_isp_sizes
from repro.workload.generator import WorkloadConfig, generate_workload

DURATION = 30.0


def run(scheme_name: str, topology, records, schedule=None):
    network = topology.build_network(default_capacity=2_000.0)
    runtime = SimulationSession(
        network,
        records,
        make_scheme(scheme_name),
        RuntimeConfig(end_time=DURATION + 10.0),
    )
    if schedule is not None:
        schedule.install(runtime)
    return runtime.run()


def main() -> None:
    topology = isp_topology()
    workload = WorkloadConfig(
        num_transactions=1_000,
        arrival_rate=40.0,
        size_distribution=ripple_isp_sizes(),
        seed=7,
    )
    records = generate_workload(list(topology.nodes), workload)

    scenarios = {
        "fault-free": lambda: None,
        "random churn (0.3 outages/s, 3s each)": lambda: random_churn_schedule(
            list(topology.nodes),
            duration=DURATION,
            churn_rate=0.3,
            outage_duration=3.0,
            seed=11,
        ),
        "blanket outage (1/3 of routers, t=10..14)": lambda: FaultSchedule(
            [NodeOutage(10.0, 14.0, node) for node in sorted(topology.nodes)[::3]]
        ),
    }

    rows = []
    for label, make_schedule in scenarios.items():
        for scheme in ("spider-waterfilling", "lnd"):
            metrics = run(scheme, topology, records, make_schedule())
            rows.append(
                [
                    label,
                    scheme,
                    f"{100 * metrics.success_ratio:.1f}",
                    f"{100 * metrics.success_volume:.1f}",
                ]
            )
    print(
        format_table(
            ["scenario", "scheme", "ratio_%", "volume_%"],
            rows,
            title="payment success under injected faults (identical trace)",
        )
    )
    print()
    print(
        "Queued non-atomic payments survive outages (they retry once the\n"
        "routers return); atomic single-path payments arriving mid-outage\n"
        "are lost for good — multipath + packet switching buys robustness,\n"
        "not just throughput."
    )


if __name__ == "__main__":
    main()
