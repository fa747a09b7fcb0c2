"""One-call regeneration of every paper figure's data.

The benchmark suite regenerates figures under pytest; this module exposes
the same computations as plain functions returning structured data, plus
:func:`generate_all`, which writes the rendered tables to text files —
`spider-repro figures --out results/` from the CLI.

Scaling follows benchmarks/conftest.py (1/10 of the paper's load; see
EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.runner import compare_schemes
from repro.fluid import (
    PaymentGraph,
    all_simple_paths,
    bfs_shortest_path,
    decompose_payment_graph,
    solve_fluid_lp,
    throughput_vs_rebalancing,
)
from repro.metrics.collectors import ExperimentMetrics
from repro.metrics.report import format_metrics_table, format_table
from repro.topology.examples import FIG4_DEMANDS, fig4_topology

__all__ = [
    "BASELINE_SCHEMES",
    "FIG6_SCHEMES",
    "baselines_data",
    "fig4_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "rebalancing_curve_data",
    "generate_all",
]

FIG6_SCHEMES = [
    "spider-lp",
    "spider-waterfilling",
    "max-flow",
    "shortest-path",
    "silentwhispers",
    "speedymurmurs",
]

#: The NSDI-version deployed-baseline comparison (bench_new_baselines.py).
BASELINE_SCHEMES = [
    "spider-waterfilling",
    "spider-window",
    "celer",
    "lnd",
    "shortest-path",
]


def _fig4_paths(all_paths: bool):
    adjacency = fig4_topology().adjacency()
    if all_paths:
        return {pair: all_simple_paths(adjacency, *pair) for pair in FIG4_DEMANDS}
    return {pair: [bfs_shortest_path(adjacency, *pair)] for pair in FIG4_DEMANDS}


def fig4_data() -> Dict[str, float]:
    """Fig. 4: shortest-path vs optimal balanced throughput."""
    shortest = solve_fluid_lp(FIG4_DEMANDS, _fig4_paths(False), balance="equality")
    optimal = solve_fluid_lp(FIG4_DEMANDS, _fig4_paths(True), balance="equality")
    return {
        "shortest_path_throughput": shortest.throughput,
        "optimal_throughput": optimal.throughput,
        "total_demand": float(sum(FIG4_DEMANDS.values())),
    }


def fig5_data() -> Dict[str, float]:
    """Fig. 5: the circulation/DAG decomposition of the example."""
    decomposition = decompose_payment_graph(PaymentGraph(FIG4_DEMANDS), method="lp")
    return {
        "total_demand": decomposition.total_demand,
        "circulation": decomposition.value,
        "dag": decomposition.dag_value,
        "circulation_fraction": decomposition.circulation_fraction,
    }


def _base_config(topology: str, seed: int) -> ExperimentConfig:
    if topology == "isp":
        return ExperimentConfig(
            topology="isp",
            capacity=3_000.0,
            num_transactions=2_000,
            arrival_rate=100.0,
            sizes="isp",
            seed=seed,
        )
    return ExperimentConfig(
        topology="ripple-tiny",
        capacity=3_000.0,
        num_transactions=1_500,
        arrival_rate=60.0,
        sizes="ripple",
        seed=seed,
    )


def fig6_data(topology: str = "isp", seed: int = 7) -> List[ExperimentMetrics]:
    """Fig. 6: the six-scheme comparison on one topology."""
    return compare_schemes(_base_config(topology, seed), FIG6_SCHEMES)


def fig7_data(
    capacities: Sequence[float] = (1_000.0, 3_000.0, 5_000.0, 10_000.0),
    schemes: Optional[Sequence[str]] = None,
    seed: int = 7,
) -> Dict[Tuple[str, float], ExperimentMetrics]:
    """Fig. 7: the capacity sweep on the ISP topology."""
    config = _base_config("isp", seed).with_overrides(num_transactions=1_500)
    return SweepExecutor(config, processes=1).parameter_sweep(
        "capacity", list(capacities), list(schemes or FIG6_SCHEMES)
    )


def baselines_data(seed: int = 42) -> List[ExperimentMetrics]:
    """NSDI-version headline: Spider vs the deployed/contemporary systems."""
    config = _base_config("isp", seed).with_overrides(
        capacity=1_500.0, num_transactions=1_500
    )
    return compare_schemes(config, BASELINE_SCHEMES)


def rebalancing_curve_data(
    budgets: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0),
) -> List[Tuple[float, float]]:
    """§5.2.3: the t(B) curve on the Fig. 4 example."""
    return throughput_vs_rebalancing(FIG4_DEMANDS, _fig4_paths(True), None, list(budgets))


def generate_all(out_dir: Union[str, Path], seed: int = 7) -> List[Path]:
    """Regenerate every figure's table into ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    def save(name: str, text: str) -> None:
        path = out / name
        path.write_text(text + "\n")
        written.append(path)

    data4 = fig4_data()
    save(
        "fig4_motivating.txt",
        format_table(
            ["routing", "throughput", "paper"],
            [
                ["shortest-path balanced", f"{data4['shortest_path_throughput']:g}", "5"],
                ["optimal balanced", f"{data4['optimal_throughput']:g}", "8"],
                ["total demand", f"{data4['total_demand']:g}", "12"],
            ],
            title="Fig. 4: balanced routing on the 5-node example",
        ),
    )

    data5 = fig5_data()
    save(
        "fig5_decomposition.txt",
        format_table(
            ["component", "value", "paper"],
            [
                ["circulation nu(C*)", f"{data5['circulation']:g}", "8"],
                ["DAG remainder", f"{data5['dag']:g}", "4"],
                ["fraction", f"{100 * data5['circulation_fraction']:.1f}%", "66.7% (paper misprints 75%)"],
            ],
            title="Fig. 5: payment graph decomposition",
        ),
    )

    for topology in ("isp", "ripple"):
        results = fig6_data(topology, seed=seed)
        save(
            f"fig6_{topology}.txt",
            format_metrics_table(results, title=f"Fig. 6 ({topology})"),
        )

    capacities = [1_000.0, 3_000.0, 5_000.0, 10_000.0]
    sweep = fig7_data(capacities, seed=seed)
    for metric, label in (("success_ratio", "ratio"), ("success_volume", "volume")):
        rows = []
        for scheme in FIG6_SCHEMES:
            rows.append(
                [scheme]
                + [
                    f"{100 * getattr(sweep[(scheme, c)], metric):.1f}"
                    for c in capacities
                ]
            )
        save(
            f"fig7_{label}.txt",
            format_table(
                ["scheme"] + [f"cap={c:g}" for c in capacities],
                rows,
                title=f"Fig. 7: success {label} % vs capacity",
            ),
        )

    curve = rebalancing_curve_data()
    save(
        "rebalancing_curve.txt",
        format_table(
            ["B", "t(B)"],
            [[f"{b:g}", f"{t:.3f}"] for b, t in curve],
            title="t(B): throughput vs rebalancing budget",
        ),
    )

    save(
        "baselines.txt",
        format_metrics_table(
            baselines_data(seed=seed),
            title="Deployed baselines (NSDI-version comparison), ISP topology",
        ),
    )
    return written
