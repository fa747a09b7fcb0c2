"""Integration tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.runner import compare_schemes, run_experiment


def small_config(**overrides):
    defaults = dict(
        topology="isp",
        capacity=2000.0,
        num_transactions=300,
        arrival_rate=60.0,
        sizes="isp",
        seed=5,
        check_invariants=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_run_is_deterministic(self):
        a = run_experiment(small_config(scheme="spider-waterfilling"))
        b = run_experiment(small_config(scheme="spider-waterfilling"))
        assert a.completed == b.completed
        assert a.delivered_value == pytest.approx(b.delivered_value)

    def test_metrics_are_well_formed(self):
        metrics = run_experiment(small_config(scheme="shortest-path"))
        assert metrics.attempted == 300
        assert 0.0 <= metrics.success_ratio <= 1.0
        assert 0.0 <= metrics.success_volume <= 1.0
        assert metrics.completed + metrics.failed <= metrics.attempted
        assert metrics.scheme == "shortest-path"

    def test_every_registered_scheme_runs(self):
        from repro.routing.registry import available_schemes

        for scheme in available_schemes():
            metrics = run_experiment(
                small_config(scheme=scheme, num_transactions=60)
            )
            assert metrics.attempted == 60


class TestCompareSchemes:
    def test_schemes_see_identical_traces(self):
        results = compare_schemes(
            small_config(), ["shortest-path", "spider-waterfilling"]
        )
        assert all(r.attempted == 300 for r in results)
        assert results[0].attempted_value == pytest.approx(results[1].attempted_value)

    def test_scheme_params_forwarded(self):
        results = compare_schemes(
            small_config(num_transactions=50),
            ["spider-waterfilling"],
            scheme_params={"spider-waterfilling": {"num_paths": 2}},
        )
        assert results[0].attempted == 50


class TestSweeps:
    def test_capacity_sweep_shape(self):
        results = SweepExecutor(
            small_config(num_transactions=100), processes=1
        ).parameter_sweep("capacity", [500.0, 5000.0], ["shortest-path"])
        assert set(results) == {("shortest-path", 500.0), ("shortest-path", 5000.0)}

    def test_more_capacity_never_hurts_much(self):
        """Fig. 7's premise: success improves with capacity."""
        results = SweepExecutor(
            small_config(num_transactions=200), processes=1
        ).parameter_sweep("capacity", [300.0, 30_000.0], ["spider-waterfilling"])
        poor = results[("spider-waterfilling", 300.0)]
        rich = results[("spider-waterfilling", 30_000.0)]
        assert rich.success_volume >= poor.success_volume
        assert rich.success_ratio >= poor.success_ratio

    def test_parameter_sweep_over_mtu(self):
        results = SweepExecutor(
            small_config(num_transactions=60), processes=1
        ).parameter_sweep("mtu", [25.0, float("inf")], ["spider-waterfilling"])
        assert len(results) == 2
