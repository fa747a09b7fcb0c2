"""Determinism regression tests (same seed + config ⇒ byte-identical JSON).

The paper's methodology depends on bit-for-bit reproducible runs: scheme
comparisons only mean something when every scheme sees the identical trace
and every rerun gives the identical answer.  These tests pin that property
by serialising the full metrics object to canonical JSON and comparing
bytes.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.report import metrics_to_json


def _config(**overrides):
    base = dict(
        scheme="spider-waterfilling",
        topology="line-5",
        capacity=200.0,
        num_transactions=250,
        arrival_rate=50.0,
        seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_same_seed_byte_identical_json():
    """Two full runs serialise to identical bytes."""
    first = metrics_to_json(run_experiment(_config()))
    second = metrics_to_json(run_experiment(_config()))
    assert first.encode() == second.encode()


def test_different_seed_changes_output():
    """The byte comparison is not vacuous: a new seed changes the JSON."""
    first = metrics_to_json(run_experiment(_config()))
    other = metrics_to_json(run_experiment(_config(seed=18)))
    assert first != other


@pytest.mark.parametrize("scheme", ["spider-queueing", "spider-window", "celer"])
def test_native_transport_determinism(scheme):
    """The hop-by-hop/backpressure transports are reproducible."""
    config = _config(scheme=scheme, num_transactions=120)
    first = metrics_to_json(run_experiment(config))
    second = metrics_to_json(run_experiment(config))
    assert first.encode() == second.encode()


@pytest.mark.parametrize(
    "scheme", ["spider-window", "spider-queueing", "celer", "spider-primal-dual"]
)
@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_signal_kernels_and_reference_loops_byte_identical(
    scheme, topology, monkeypatch
):
    """The ControlPlane kernels reproduce the per-element loops bit for bit.

    The same seeded experiment runs once on the kernels and once with
    every kernel replaced by its reference loop (``tests/reference/
    signals.py``: per-unit marks, per-channel price steps, per-destination
    gradients); the serialised metrics — including the
    ``mean_mark_rate``/``mean_price`` columns — must match byte for byte
    across the windowed, queueing, backpressure and primal-dual schemes.
    """
    from repro.engine.signals import ControlPlane
    from tests.reference.signals import KERNELS

    config = _config(scheme=scheme, topology=topology, num_transactions=150)
    kernels = metrics_to_json(run_experiment(config))
    for name, loop in KERNELS.items():
        monkeypatch.setattr(ControlPlane, name, loop)
    loops = metrics_to_json(run_experiment(config))
    assert kernels.encode() == loops.encode()

