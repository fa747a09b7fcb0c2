"""Tests for the parallel SweepExecutor."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import (
    SweepCell,
    SweepCellError,
    SweepExecutor,
    derive_cell_seed,
)
from repro.experiments.sweeps import parameter_sweep
from repro.metrics.collectors import ExperimentMetrics
from repro.metrics.report import metrics_to_json

CAPACITIES = [100.0, 140.0, 180.0, 220.0]
SCHEMES = ["spider-waterfilling", "shortest-path"]


def _base(**overrides):
    base = dict(
        scheme="spider-waterfilling",
        topology="line-4",
        capacity=150.0,
        num_transactions=100,
        arrival_rate=40.0,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCellGrid:
    def test_grid_shape_and_seeds(self):
        executor = SweepExecutor(_base(), processes=1)
        cells = executor.cells("capacity", CAPACITIES, SCHEMES)
        assert len(cells) == 8
        # Schemes at the same value share a seed (identical traces)...
        by_value = {}
        for cell in cells:
            by_value.setdefault(cell.value, set()).add(cell.config.seed)
        assert all(len(seeds) == 1 for seeds in by_value.values())
        # ...and different values get different derived seeds.
        assert len({next(iter(s)) for s in by_value.values()}) == len(CAPACITIES)

    def test_cell_seeds_reproducible(self):
        assert derive_cell_seed(11, "capacity", 100.0) == derive_cell_seed(
            11, "capacity", 100.0
        )
        assert derive_cell_seed(11, "capacity", 100.0) != derive_cell_seed(
            12, "capacity", 100.0
        )

    def test_reseed_disabled_keeps_base_seed(self):
        executor = SweepExecutor(_base(), processes=1, reseed_cells=False)
        cells = executor.cells("capacity", CAPACITIES, SCHEMES)
        assert {cell.config.seed for cell in cells} == {11}


class TestParallelExecution:
    def test_eight_cells_parallel_matches_serial(self):
        """≥8 cells through worker processes, byte-identical to serial."""
        parallel = SweepExecutor(_base(), processes=2).parameter_sweep(
            "capacity", CAPACITIES, SCHEMES
        )
        serial = SweepExecutor(_base(), processes=1).parameter_sweep(
            "capacity", CAPACITIES, SCHEMES
        )
        assert len(parallel) == 8
        assert parallel.keys() == serial.keys()
        for key in parallel:
            assert metrics_to_json(parallel[key]) == metrics_to_json(serial[key])

    def test_matches_serial_sweeps_module_when_not_reseeded(self):
        executor = SweepExecutor(_base(), processes=2, reseed_cells=False)
        via_executor = executor.parameter_sweep("capacity", CAPACITIES[:2], SCHEMES)
        via_sweeps = parameter_sweep(_base(), "capacity", CAPACITIES[:2], SCHEMES)
        for key, metrics in via_sweeps.items():
            assert metrics_to_json(via_executor[key]) == metrics_to_json(metrics)


class TestFailureIdentity:
    """A dying cell must name itself, not surface a bare pool traceback."""

    def _cells(self):
        good = _base()
        bad = _base(topology="no-such-topology")
        return [
            SweepCell(0, "spider-waterfilling", "capacity", 100.0, good),
            SweepCell(1, "spider-waterfilling", "capacity", 140.0, bad),
        ]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_failure_names_the_owning_cell(self, processes):
        executor = SweepExecutor(_base(), processes=processes)
        with pytest.raises(SweepCellError) as excinfo:
            executor.run_cells(self._cells())
        err = excinfo.value
        assert err.cell.index == 1
        assert err.cell.scheme == "spider-waterfilling"
        assert (err.cell.field, err.cell.value) == ("capacity", 140.0)
        message = str(err)
        # The identity the operator needs to reproduce the cell...
        assert "capacity=140.0" in message
        assert "spider-waterfilling" in message
        assert f"seed={err.cell.config.seed}" in message
        # ...plus the worker's traceback, verbatim.
        assert "no-such-topology" in message
        assert "Traceback" in err.traceback_text

    def test_lowest_index_failure_wins(self):
        cells = self._cells()
        bad0 = SweepCell(
            2, "shortest-path", "capacity", 180.0, _base(topology="also-bad")
        )
        executor = SweepExecutor(_base(), processes=1)
        with pytest.raises(SweepCellError) as excinfo:
            executor.run_cells([bad0, *cells])
        assert excinfo.value.cell.index == 1  # deterministic: lowest index


class TestCaching:
    def test_cache_round_trip(self, tmp_path):
        cache = str(tmp_path / "cells")
        first = SweepExecutor(_base(), processes=1, cache_dir=cache)
        results = first.parameter_sweep("capacity", CAPACITIES[:2], SCHEMES)
        assert first.cache_misses == 4 and first.cache_hits == 0
        # One JSON per cell, plus the path-artifact subdirectory the
        # executor now maintains alongside the cell cache.
        cell_entries = [f for f in os.listdir(cache) if f.endswith(".json")]
        assert len(cell_entries) == 4
        assert os.path.isdir(os.path.join(cache, "paths"))

        second = SweepExecutor(_base(), processes=1, cache_dir=cache)
        cached = second.parameter_sweep("capacity", CAPACITIES[:2], SCHEMES)
        assert second.cache_hits == 4 and second.cache_misses == 0
        for key in results:
            assert metrics_to_json(cached[key]) == metrics_to_json(results[key])

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = str(tmp_path / "cells")
        executor = SweepExecutor(_base(), processes=1, cache_dir=cache)
        executor.parameter_sweep("capacity", CAPACITIES[:1], SCHEMES[:1])
        (entry,) = [f for f in os.listdir(cache) if f.endswith(".json")]
        with open(os.path.join(cache, entry), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        again = SweepExecutor(_base(), processes=1, cache_dir=cache)
        results = again.parameter_sweep("capacity", CAPACITIES[:1], SCHEMES[:1])
        assert again.cache_misses == 1
        assert isinstance(next(iter(results.values())), ExperimentMetrics)


class TestMetricsRoundTrip:
    def test_to_dict_from_dict_is_lossless(self):
        from repro.experiments.runner import run_experiment

        metrics = run_experiment(_base())
        clone = ExperimentMetrics.from_dict(
            json.loads(json.dumps(metrics.to_dict()))
        )
        assert metrics_to_json(clone) == metrics_to_json(metrics)
