"""Extension experiments: the paper's deferred features, measured.

Covers the §4.1/§4.2/§5.3/§7 machinery the paper describes but does not
evaluate:

* **AMP** (§4.1) — atomic multi-path Spider vs the non-atomic transport:
  atomicity trades partial-delivery volume for a cleaner success ratio;
* **in-network queues** (§4.2 / "future work" in §6.1) — hop-by-hop
  forwarding with router queues vs the paper's source-side queueing;
* **proportional fairness** (§5.3 closing remark) — the utility-based LP
  eliminates starved pairs at bounded throughput cost;
* **admission control** (§7) — rejecting doomed whales preserves ratio and
  spares in-flight capital, at some volume cost.

Run with::

    pytest benchmarks/bench_extensions.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.experiments import ExperimentConfig, compare_schemes
from repro.metrics import format_metrics_table, format_table

BASE = dict(
    topology="isp",
    capacity=1_500.0,
    num_transactions=1_200,
    arrival_rate=100.0,
    sizes="isp",
    seed=7,
)


def test_amp_vs_non_atomic(benchmark):
    """Atomicity ablation on Spider itself (same waterfilling allocator)."""
    config = ExperimentConfig(**BASE)
    results = run_once(
        benchmark, lambda: compare_schemes(config, ["spider-waterfilling", "spider-amp"])
    )
    by_scheme = {m.scheme: m for m in results}
    print()
    print(format_metrics_table(results, title="AMP (atomic) vs non-atomic Spider"))
    non_atomic = by_scheme["spider-waterfilling"]
    amp = by_scheme["spider-amp"]
    # §4.1: "relaxing atomicity improves network efficiency" — volume.
    assert non_atomic.success_volume >= amp.success_volume - 0.01
    # AMP stays competitive on ratio (single clean attempt).
    assert amp.success_ratio >= non_atomic.success_ratio - 0.05


def test_in_network_queues_vs_source_queueing(benchmark):
    """§4.2 in-network queues vs the paper's evaluated source queueing."""
    config = ExperimentConfig(**BASE)
    results = run_once(
        benchmark,
        lambda: compare_schemes(config, ["spider-waterfilling", "spider-queueing"]),
    )
    by_scheme = {m.scheme: m for m in results}
    print()
    print(
        format_metrics_table(
            results, title="source queueing vs in-network router queues"
        )
    )
    # The two transports are close at this load; in-network queues must not
    # collapse (they hold funds in-flight while queued, which costs some
    # capacity relative to source queueing).
    assert (
        by_scheme["spider-queueing"].success_volume
        >= by_scheme["spider-waterfilling"].success_volume - 0.10
    )


def test_admission_control_tradeoff(benchmark):
    """§7: reject unlikely-to-complete payments at arrival."""
    config = ExperimentConfig(**BASE)

    def run():
        plain = compare_schemes(config, ["spider-waterfilling"])[0]
        controlled = compare_schemes(
            config,
            ["spider-admission"],
            scheme_params={
                "spider-admission": {
                    "inner": "spider-waterfilling",
                    "admit_fraction": 0.9,
                }
            },
        )[0]
        return plain, controlled

    plain, controlled = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["variant", "ratio %", "volume %"],
            [
                ["plain waterfilling", f"{100 * plain.success_ratio:.1f}", f"{100 * plain.success_volume:.1f}"],
                ["with admission control", f"{100 * controlled.success_ratio:.1f}", f"{100 * controlled.success_volume:.1f}"],
            ],
            title="admission control (admit_fraction=0.9)",
        )
    )
    assert controlled.success_ratio >= plain.success_ratio - 0.02


def test_fee_budget_sweep(benchmark):
    """§2/§4.1: rising network fees push payments over their fee budget.

    With a 2% max-fee budget, success degrades as the per-hop proportional
    fee climbs — the economics knob the paper's §7 discussion anticipates.
    """
    from repro.experiments import SweepExecutor

    config = ExperimentConfig(**BASE).with_overrides(
        capacity=3_000.0, max_fee_fraction=0.02
    )
    rates = [0.0, 0.005, 0.02, 0.05]

    executor = SweepExecutor(config, processes=1)
    results = run_once(
        benchmark,
        lambda: executor.parameter_sweep("fee_rate", rates, ["spider-waterfilling"]),
    )
    rows = []
    for rate in rates:
        metrics = results[("spider-waterfilling", rate)]
        rows.append(
            [
                f"{100 * rate:g}%",
                f"{100 * metrics.success_ratio:.1f}",
                f"{100 * metrics.success_volume:.1f}",
                f"{metrics.total_fees_paid:,.0f}",
            ]
        )
    print()
    print(
        format_table(
            ["fee rate", "ratio %", "volume %", "fees paid"],
            rows,
            title="fee sweep under a 2% max-fee budget",
        )
    )
    series = [results[("spider-waterfilling", r)].success_volume for r in rates]
    # Success volume must be non-increasing as fees rise past the budget.
    assert series[-1] <= series[0] + 1e-9
    # Low fees fit the budget and are actually paid.
    assert results[("spider-waterfilling", 0.005)].total_fees_paid > 0.0


def test_fairness_lp_row(benchmark):
    """§5.3: proportional fairness vs max-throughput on a contended core."""
    from repro.fluid import jain_index, solve_fairness_lp, solve_fluid_lp
    from repro.fluid.paths import all_simple_paths
    from repro.topology.generators import line_topology

    adjacency = line_topology(4).adjacency()
    demands = {(0, 3): 10.0, (3, 0): 10.0, (1, 2): 10.0, (2, 1): 10.0}
    path_set = {pair: all_simple_paths(adjacency, *pair) for pair in demands}
    capacities = {(1, 2): 10.0}

    def run():
        greedy = solve_fluid_lp(
            demands, path_set, capacities=capacities, delta=1.0, balance="equality"
        )
        fair = solve_fairness_lp(demands, path_set, capacities, delta=1.0)
        return greedy, fair

    greedy, fair = run_once(benchmark, run)
    greedy_flows = [greedy.pair_flows.get(p, 0.0) for p in sorted(demands)]
    fair_flows = [fair.pair_flows[p] for p in sorted(demands)]
    print()
    print(
        format_table(
            ["objective", "throughput", "min pair flow", "Jain index"],
            [
                ["max-throughput", f"{greedy.throughput:.2f}", f"{min(greedy_flows):.2f}", f"{jain_index(greedy_flows):.3f}"],
                ["proportional fairness", f"{fair.throughput:.2f}", f"{min(fair_flows):.2f}", f"{jain_index(fair_flows):.3f}"],
            ],
            title="fairness vs throughput (shared-bottleneck line)",
        )
    )
    assert min(greedy_flows) == pytest.approx(0.0, abs=1e-6)
    assert min(fair_flows) > 0.0
    assert jain_index(fair_flows) > 0.9
