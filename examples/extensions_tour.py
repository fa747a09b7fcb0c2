"""Tour of the implemented 'future work' features.

Usage::

    python examples/extensions_tour.py

The paper defers several mechanisms that this library implements; each
section below runs one of them on a small scenario:

1. **in-network router queues** (§4.2) — watch a unit park at a dry router
   and get released by reverse traffic;
2. **AMP atomic multi-path** (§4.1) — the atomicity trade-off on one trace;
3. **admission control** (§7) — rejecting doomed whales;
4. **proportional fairness** (§5.3) — no pair starves.
"""

from __future__ import annotations

from repro.core.queueing import SpiderQueueingScheme
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.experiments import ExperimentConfig, compare_schemes
from repro.fluid import jain_index, solve_fairness_lp, solve_fluid_lp
from repro.fluid.paths import all_simple_paths
from repro.metrics import format_metrics_table
from repro.topology.generators import line_topology
from repro.workload.generator import TransactionRecord


def section_queueing() -> None:
    print("=== 1. in-network router queues (§4.2) ===")
    network = line_topology(4).build_network(default_capacity=100.0)
    network.lock_path((1, 2), 45.0)  # router 1 nearly dry toward 2
    records = [
        TransactionRecord(0, 1.0, 0, 3, 30.0),  # will park at router 1
        TransactionRecord(1, 2.0, 3, 0, 40.0),  # reverse flow releases it
    ]
    runtime = SimulationSession(
        network, records, SpiderQueueingScheme(), RuntimeConfig(end_time=20.0)
    )
    metrics = runtime.run()
    print(f"payments completed: {metrics.completed}/2")
    print(f"units queued at routers: {runtime.transport.units_queued}, "
          f"mean queue delay {runtime.transport.mean_queue_delay:.2f}s")
    print("the 30-unit payment waited mid-path until the reverse payment "
          "refilled the channel\n")


def section_amp() -> None:
    print("=== 2. AMP: atomic multi-path Spider (§4.1) ===")
    config = ExperimentConfig(
        topology="isp", capacity=1_500.0, num_transactions=1_000,
        arrival_rate=100.0, seed=5,
    )
    results = compare_schemes(config, ["spider-waterfilling", "spider-amp"])
    print(format_metrics_table(results))
    print("atomicity costs the partial-delivery volume non-atomic Spider keeps\n")


def section_admission() -> None:
    print("=== 3. admission control (§7) ===")
    config = ExperimentConfig(
        topology="isp", capacity=1_500.0, num_transactions=1_000,
        arrival_rate=100.0, seed=5,
    )
    plain = compare_schemes(config, ["spider-waterfilling"])[0]
    controlled = compare_schemes(
        config,
        ["spider-admission"],
        scheme_params={"spider-admission": {"admit_fraction": 0.9}},
    )[0]
    print(f"plain      : ratio {100 * plain.success_ratio:.1f}%  "
          f"volume {100 * plain.success_volume:.1f}%")
    print(f"admission  : ratio {100 * controlled.success_ratio:.1f}%  "
          f"volume {100 * controlled.success_volume:.1f}%")
    print("rejecting doomed payments spares in-flight capital at some volume cost\n")


def section_fairness() -> None:
    print("=== 4. proportional fairness (§5.3) ===")
    adjacency = line_topology(4).adjacency()
    demands = {(0, 3): 10.0, (3, 0): 10.0, (1, 2): 10.0, (2, 1): 10.0}
    path_set = {pair: all_simple_paths(adjacency, *pair) for pair in demands}
    capacities = {(1, 2): 10.0}
    greedy = solve_fluid_lp(
        demands, path_set, capacities=capacities, delta=1.0, balance="equality"
    )
    fair = solve_fairness_lp(demands, path_set, capacities, delta=1.0)
    for label, solution_flows in (
        ("max-throughput", [greedy.pair_flows.get(p, 0.0) for p in sorted(demands)]),
        ("proportional-fair", [fair.pair_flows[p] for p in sorted(demands)]),
    ):
        flows = ", ".join(f"{f:.2f}" for f in solution_flows)
        print(f"{label:18s} flows [{flows}]  Jain {jain_index(solution_flows):.3f}")
    print("fairness serves the long-haul pairs max-throughput starves")


def main() -> None:
    section_queueing()
    section_amp()
    section_admission()
    section_fairness()


if __name__ == "__main__":
    main()
