"""Figure 7 — success metrics vs per-channel capacity on the ISP topology.

Paper observations reproduced here:

* both success ratio and success volume rise monotonically with capacity
  for every scheme;
* Spider (Waterfilling) reaches any given success level with less capital
  than the other schemes ("the amount of capital that needs to be locked
  in with Spider (Waterfilling) is much lower");
* Spider (LP) is the least sensitive to capacity ("because it does a
  better job of avoiding imbalance").

Capacities are 1/10 of the paper's 10 000–100 000 XRP axis (see
benchmarks/conftest.py for the scaling note).

Run with::

    pytest benchmarks/bench_fig7_capacity_sweep.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FIG6_SCHEMES, run_once
from repro.experiments import ExperimentConfig, SweepExecutor
from repro.metrics import format_table

CAPACITIES = [1_000.0, 3_000.0, 5_000.0, 10_000.0]


def base_config():
    return ExperimentConfig(
        topology="isp",
        num_transactions=1_500,
        arrival_rate=100.0,
        sizes="isp",
        seed=7,
    )


@pytest.fixture(scope="module")
def sweep_results():
    # 24 cells (6 schemes × 4 capacities) across worker processes on the
    # SimulationSession engine.  Every cell runs at the base seed, so the
    # monotonicity checks below compare identical traces.
    executor = SweepExecutor(base_config(), processes=4)
    return executor.parameter_sweep("capacity", CAPACITIES, FIG6_SCHEMES)


def _series(results, scheme, metric):
    return [getattr(results[(scheme, c)], metric) for c in CAPACITIES]


def test_fig7_success_ratio_series(benchmark, sweep_results):
    """The Fig. 7 (left) series: success ratio vs capacity per scheme."""
    results = run_once(benchmark, lambda: sweep_results)
    rows = []
    for scheme in FIG6_SCHEMES:
        rows.append(
            [scheme]
            + [f"{100 * results[(scheme, c)].success_ratio:.1f}" for c in CAPACITIES]
        )
    print()
    print(
        format_table(
            ["scheme"] + [f"cap={c:g}" for c in CAPACITIES],
            rows,
            title="Fig. 7 (left): success ratio % vs capacity",
        )
    )
    # Monotone non-decreasing in capacity for the adaptive schemes.
    for scheme in ("spider-waterfilling", "shortest-path", "max-flow"):
        series = _series(results, scheme, "success_ratio")
        for a, b in zip(series, series[1:]):
            assert b >= a - 0.03


def test_fig7_success_volume_series(benchmark, sweep_results):
    """The Fig. 7 (right) series: success volume vs capacity per scheme."""
    results = run_once(benchmark, lambda: sweep_results)
    rows = []
    for scheme in FIG6_SCHEMES:
        rows.append(
            [scheme]
            + [f"{100 * results[(scheme, c)].success_volume:.1f}" for c in CAPACITIES]
        )
    print()
    print(
        format_table(
            ["scheme"] + [f"cap={c:g}" for c in CAPACITIES],
            rows,
            title="Fig. 7 (right): success volume % vs capacity",
        )
    )
    waterfilling = _series(results, "spider-waterfilling", "success_volume")
    for a, b in zip(waterfilling, waterfilling[1:]):
        assert b >= a - 0.03


def test_fig7_capital_efficiency(benchmark, sweep_results):
    """Spider (WF) needs no more capital than any baseline for a 70% volume
    target, and strictly less than the landmark/embedding baselines."""

    def capital_needed(scheme, target=0.7):
        for capacity in CAPACITIES:
            if sweep_results[(scheme, capacity)].success_volume >= target:
                return capacity
        return float("inf")

    spider = run_once(benchmark, lambda: capital_needed("spider-waterfilling"))
    print()
    for scheme in FIG6_SCHEMES:
        needed = capital_needed(scheme)
        label = f"{needed:g}" if needed != float("inf") else f"> {CAPACITIES[-1]:g}"
        print(f"capital for 70% volume: {scheme:22s} {label}")
    assert spider <= capital_needed("shortest-path")
    assert spider < capital_needed("silentwhispers")
    assert spider < capital_needed("speedymurmurs")


def test_fig7_lp_is_least_capacity_sensitive(benchmark, sweep_results):
    """Spider (LP)'s volume moves least across the capacity range (§6.2)."""

    def swing(scheme):
        series = _series(sweep_results, scheme, "success_volume")
        return max(series) - min(series)

    lp_swing = run_once(benchmark, lambda: swing("spider-lp"))
    for scheme in ("spider-waterfilling", "shortest-path", "silentwhispers"):
        assert lp_swing <= swing(scheme) + 0.02
