"""Proposition 1 — the balanced-throughput bound, checked dynamically.

The proposition says ν(C*) is exactly the ceiling for perfectly balanced
routing.  This bench verifies both halves on random payment graphs (the
fluid level) and then confirms the dynamic counterpart in the simulator:
a pure-circulation workload is (nearly) fully routable, a pure-DAG
workload starves once the escrowed funds are spent.

Run with::

    pytest benchmarks/bench_prop1_throughput_bound.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.fluid import (
    PaymentGraph,
    all_simple_paths,
    decompose_payment_graph,
    solve_fluid_lp,
)
from repro.metrics import format_table
from repro.routing import make_scheme
from repro.topology import complete_topology
from repro.workload import circulation_demand, dag_demand, records_from_demand


def test_prop1_upper_bound_on_random_graphs(benchmark):
    """No balanced routing exceeds nu(C*): LP throughput <= nu on random
    demand over a complete topology (where path sets are rich)."""
    topology = complete_topology(8)
    adjacency = topology.adjacency()

    def run():
        rows = []
        for seed in range(5):
            from repro.workload import mixed_demand

            demands = mixed_demand(range(8), 40.0, circulation_fraction=0.6, seed=seed)
            nu = decompose_payment_graph(PaymentGraph(demands), method="lp").value
            path_set = {
                pair: all_simple_paths(adjacency, *pair, cutoff=3) for pair in demands
            }
            balanced = solve_fluid_lp(demands, path_set, balance="equality").throughput
            rows.append((seed, nu, balanced))
            assert balanced <= nu + 1e-6
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["seed", "nu(C*)", "balanced LP"],
            [[s, f"{n:.3f}", f"{b:.3f}"] for s, n, b in rows],
            title="Prop. 1 upper bound (balanced <= nu)",
        )
    )


def test_prop1_circulation_workload_flows(benchmark):
    """Dynamic lower bound: a circulation workload achieves near-full volume."""
    topology = complete_topology(8)

    def run():
        demands = circulation_demand(range(8), 60.0, num_cycles=4, seed=3)
        records = records_from_demand(demands, duration=30.0, mean_size=5.0, seed=3)
        network = topology.build_network(default_capacity=5_000.0)
        runtime = SimulationSession(
            network,
            records,
            make_scheme("spider-waterfilling"),
            RuntimeConfig(end_time=45.0),
        )
        return runtime.run()

    metrics = run_once(benchmark, run)
    print(f"\ncirculation workload success volume: {100 * metrics.success_volume:.1f}%")
    assert metrics.success_volume > 0.95


def test_prop1_dag_workload_starves(benchmark):
    """Dynamic converse: a DAG workload delivers at most the escrowed funds
    and then starves (its sustainable balanced rate is zero)."""
    topology = complete_topology(8)
    # Tight escrow: total funds (28 channels x 50) are well below the 1800
    # units of one-way demand, so starvation must show.
    capacity = 50.0

    def run():
        demands = dag_demand(range(8), 60.0, num_pairs=6, seed=3)
        records = records_from_demand(demands, duration=30.0, mean_size=5.0, seed=3)
        network = topology.build_network(default_capacity=capacity)
        runtime = SimulationSession(
            network,
            records,
            make_scheme("spider-waterfilling"),
            RuntimeConfig(end_time=45.0),
        )
        return runtime.run(), network

    metrics, network = run_once(benchmark, run)
    print(f"\nDAG workload success volume: {100 * metrics.success_volume:.1f}%")
    # Delivered value is bounded by the escrow that can drain one way:
    # every channel can contribute at most its full capacity.
    assert metrics.delivered_value <= network.total_funds()
    assert metrics.success_volume < 0.5
