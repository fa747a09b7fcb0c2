"""§5.2.3 — throughput with on-chain rebalancing: t(B) and the γ trade-off.

Paper claims reproduced:

* t(B) is non-decreasing and concave in the total rebalancing budget B;
* as γ (the cost of one unit of on-chain rebalancing rate) decreases, the
  optimal throughput rises from ν(C*) to the full demand;
* at large γ the solution is exactly the balanced optimum (B = 0).

Run with::

    pytest benchmarks/bench_rebalancing_curve.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.fluid import all_simple_paths, solve_rebalancing_lp, throughput_vs_rebalancing
from repro.metrics import format_table
from repro.topology import FIG4_DEMANDS, fig4_topology


@pytest.fixture(scope="module")
def fig4_paths():
    adjacency = fig4_topology().adjacency()
    return {pair: all_simple_paths(adjacency, *pair) for pair in FIG4_DEMANDS}


def test_t_of_b_curve(benchmark, fig4_paths):
    """The t(B) series on the Fig. 4 example: 8 at B=0 rising to 12."""
    budgets = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0]

    curve = run_once(
        benchmark,
        lambda: throughput_vs_rebalancing(FIG4_DEMANDS, fig4_paths, None, budgets),
    )
    print()
    print(
        format_table(
            ["B", "t(B)"],
            [[f"{b:g}", f"{t:.3f}"] for b, t in curve],
            title="t(B): throughput vs rebalancing budget (Fig. 4 example)",
        )
    )
    values = [t for _, t in curve]
    assert values[0] == pytest.approx(8.0, abs=1e-6)
    assert values[-1] == pytest.approx(12.0, abs=1e-6)
    # Non-decreasing.
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    # Concave on the uniform budget prefix (spacing 0.5 for first 7 points).
    uniform = values[:7]
    for i in range(1, len(uniform) - 1):
        assert uniform[i + 1] - uniform[i] <= uniform[i] - uniform[i - 1] + 1e-9


def test_gamma_sweep(benchmark, fig4_paths):
    """Eqs. 6–11 across γ: throughput interpolates between 12 and nu = 8."""
    gammas = [0.01, 0.25, 0.75, 1.5, 3.0, 100.0]

    def run():
        return [
            (g, solve_rebalancing_lp(FIG4_DEMANDS, fig4_paths, None, gamma=g))
            for g in gammas
        ]

    results = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["gamma", "throughput", "total rebalancing", "objective"],
            [
                [f"{g:g}", f"{s.throughput:.3f}", f"{s.total_rebalancing:.3f}", f"{s.objective:.3f}"]
                for g, s in results
            ],
            title="rebalancing LP vs gamma (Fig. 4 example)",
        )
    )
    throughputs = [s.throughput for _, s in results]
    assert throughputs[0] == pytest.approx(12.0, abs=1e-5)
    assert throughputs[-1] == pytest.approx(8.0, abs=1e-5)
    for a, b in zip(throughputs, throughputs[1:]):
        assert b <= a + 1e-6


def test_online_rebalancing_in_simulation(benchmark):
    """Extension: on-chain deposits during the run let a one-way (DAG)
    demand keep flowing — the dynamic counterpart of §5.2.3."""
    from repro.engine.session import RuntimeConfig, SimulationSession
    from repro.routing import make_scheme
    from repro.topology import line_topology
    from repro.workload import records_from_demand

    def run(deposit_rate):
        network = line_topology(3).build_network(default_capacity=100.0)
        records = records_from_demand({(0, 2): 20.0}, duration=30.0, mean_size=5.0, seed=1)
        runtime = SimulationSession(
            network,
            records,
            make_scheme("spider-waterfilling"),
            RuntimeConfig(end_time=40.0),
        )
        if deposit_rate > 0:
            def deposit():
                for channel in network.channels():
                    channel.deposit(channel.node_a, deposit_rate)

            runtime.sim.every(1.0, deposit)
        return runtime.run()

    def both():
        return run(0.0), run(20.0)

    without, with_deposits = run_once(benchmark, both)
    print(
        f"\nDAG demand success volume: {100 * without.success_volume:.1f}% without "
        f"deposits, {100 * with_deposits.success_volume:.1f}% with on-chain deposits"
    )
    assert with_deposits.success_volume > without.success_volume + 0.2
