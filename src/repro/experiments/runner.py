"""Experiment execution: configs in, metrics out."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.engine.session import SimulationSession
from repro.experiments.config import ExperimentConfig
from repro.metrics.collectors import ExperimentMetrics, MetricsCollector

__all__ = ["build_session", "run_experiment", "compare_schemes"]


def build_session(
    config: ExperimentConfig,
    collector: Optional[MetricsCollector] = None,
) -> SimulationSession:
    """Build (but do not run) the config's :class:`SimulationSession`."""
    return SimulationSession.from_config(config, collector=collector)


def run_experiment(
    config: ExperimentConfig,
    path_cache_dir: Optional[str] = None,
) -> ExperimentMetrics:
    """Run one scheme on one topology/workload; returns the run metrics.

    The workload and topology depend only on the config's seed and
    parameters — never on the scheme — so scheme comparisons see identical
    traces, as in the paper's evaluation.

    ``path_cache_dir`` points the run's
    :class:`~repro.engine.pathservice.PathService` at a persistent
    path-artifact directory: pair path sets computed by earlier runs over
    the same topology are loaded instead of recomputed.
    """
    return SimulationSession.from_config(config, path_cache_dir=path_cache_dir).run()


def compare_schemes(
    base_config: ExperimentConfig,
    schemes: Sequence[str],
    scheme_params: Optional[Dict[str, Dict[str, object]]] = None,
    path_cache_dir: Optional[str] = None,
) -> List[ExperimentMetrics]:
    """Run several schemes against the identical trace (Fig. 6 layout).

    ``scheme_params`` optionally maps scheme name → constructor kwargs.
    Within one process the schemes already share discovered pair sets
    (the PathService memoises process-wide per topology);
    ``path_cache_dir`` additionally shares them across processes and
    invocations.
    """
    scheme_params = scheme_params or {}
    results = []
    for scheme in schemes:
        config = base_config.with_overrides(
            scheme=scheme, scheme_params=scheme_params.get(scheme, {})
        )
        results.append(run_experiment(config, path_cache_dir=path_cache_dir))
    return results
