"""Ablations over Spider's design choices (§4, §6.1, DESIGN.md).

Four axes the paper fixes by fiat, swept here:

* **MTU** — smaller transaction units pack capacity better at the cost of
  more events ("packet switching" granularity, §4);
* **scheduling policy** — the paper evaluates SRPT [8]; we compare FIFO,
  LIFO and EDF on the same trace;
* **path count k** — the paper restricts to 4 edge-disjoint paths (§6.1);
* **atomicity** — the same waterfilling allocator run atomically loses the
  partial-delivery volume that §4.1's non-atomic transport keeps.

Run with::

    pytest benchmarks/bench_ablations.py --benchmark-only -s
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import run_once
from repro.experiments import ExperimentConfig, SweepExecutor, run_experiment
from repro.metrics import format_table

BASE = dict(
    topology="isp",
    capacity=1_500.0,  # deliberately tight so the ablations separate
    num_transactions=1_200,
    arrival_rate=100.0,
    sizes="isp",
    seed=7,
)


def test_mtu_ablation(benchmark):
    """Smaller MTU improves packing (volume) until event overhead dominates."""
    mtus = [math.inf, 170.0, 50.0]

    executor = SweepExecutor(ExperimentConfig(**BASE), processes=1)
    results = run_once(
        benchmark,
        lambda: executor.parameter_sweep("mtu", mtus, ["spider-waterfilling"]),
    )
    rows = [
        [
            ("inf" if math.isinf(m) else f"{m:g}"),
            f"{100 * results[('spider-waterfilling', m)].success_ratio:.1f}",
            f"{100 * results[('spider-waterfilling', m)].success_volume:.1f}",
            results[("spider-waterfilling", m)].units_settled,
        ]
        for m in mtus
    ]
    print()
    print(
        format_table(
            ["mtu", "ratio %", "volume %", "units settled"],
            rows,
            title="MTU ablation (spider-waterfilling, tight capacity)",
        )
    )
    # Finer units mean (weakly) more settled units and no volume loss.
    inf_volume = results[("spider-waterfilling", math.inf)].success_volume
    fine_volume = results[("spider-waterfilling", 50.0)].success_volume
    assert fine_volume >= inf_volume - 0.03
    assert (
        results[("spider-waterfilling", 50.0)].units_settled
        > results[("spider-waterfilling", math.inf)].units_settled
    )


def test_scheduling_policy_ablation(benchmark):
    """SRPT maximises completed payments among the polled policies (§4.2)."""
    policies = ["srpt", "fifo", "lifo", "edf", "largest-remaining"]

    executor = SweepExecutor(ExperimentConfig(**BASE), processes=1)
    results = run_once(
        benchmark,
        lambda: executor.parameter_sweep(
            "scheduling_policy", policies, ["spider-waterfilling"]
        ),
    )
    rows = [
        [
            p,
            f"{100 * results[('spider-waterfilling', p)].success_ratio:.1f}",
            f"{100 * results[('spider-waterfilling', p)].success_volume:.1f}",
        ]
        for p in policies
    ]
    print()
    print(
        format_table(
            ["policy", "ratio %", "volume %"],
            rows,
            title="scheduling policy ablation",
        )
    )
    srpt = results[("spider-waterfilling", "srpt")].success_ratio
    anti = results[("spider-waterfilling", "largest-remaining")].success_ratio
    assert srpt >= anti - 0.01  # SRPT never loses to its inverse


def test_path_count_ablation(benchmark):
    """More edge-disjoint paths help until the topology runs out of
    disjoint short routes (the paper picks k=4)."""
    counts = [1, 2, 4, 8]

    def run():
        out = {}
        for k in counts:
            config = ExperimentConfig(
                **BASE, scheme="spider-waterfilling", scheme_params={"num_paths": k}
            )
            out[k] = run_experiment(config)
        return out

    results = run_once(benchmark, run)
    rows = [
        [k, f"{100 * results[k].success_ratio:.1f}", f"{100 * results[k].success_volume:.1f}"]
        for k in counts
    ]
    print()
    print(format_table(["k paths", "ratio %", "volume %"], rows, title="path count ablation"))
    assert results[4].success_volume >= results[1].success_volume - 0.02


def test_atomicity_ablation(benchmark):
    """Non-atomic delivery (Spider's transport, §4.1) vs the atomic
    baselines' all-or-nothing behaviour on the identical trace."""

    def run():
        non_atomic = run_experiment(
            ExperimentConfig(**BASE, scheme="spider-waterfilling")
        )
        atomic = run_experiment(ExperimentConfig(**BASE, scheme="silentwhispers"))
        return non_atomic, atomic

    non_atomic, atomic = run_once(benchmark, run)
    print(
        f"\nnon-atomic (waterfilling) volume {100 * non_atomic.success_volume:.1f}% "
        f"vs atomic (silentwhispers) {100 * atomic.success_volume:.1f}%"
    )
    assert non_atomic.success_volume > atomic.success_volume
