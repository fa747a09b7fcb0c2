"""Experiment harness: configs, runners, the sweep executor."""

from repro.experiments.config import (
    ExperimentConfig,
    build_size_distribution,
    build_topology,
)
from repro.experiments.executor import SweepCell, SweepExecutor
from repro.experiments.runner import compare_schemes, run_experiment

__all__ = [
    "ExperimentConfig",
    "SweepCell",
    "SweepExecutor",
    "build_size_distribution",
    "build_topology",
    "compare_schemes",
    "run_experiment",
]
