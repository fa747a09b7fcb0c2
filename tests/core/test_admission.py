"""Tests for admission control (§7)."""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionControlScheme
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.metrics.collectors import MetricsCollector
from repro.topology.generators import line_topology
from repro.workload.generator import TransactionRecord


def run(records, scheme, capacity=100.0):
    network = line_topology(3).build_network(default_capacity=capacity)
    runtime = SimulationSession(network, records, scheme, RuntimeConfig(end_time=20.0))
    return runtime.run(), runtime


class TestAdmissionControl:
    def test_oversized_payment_rejected_without_locking(self):
        scheme = AdmissionControlScheme("spider-waterfilling", admit_fraction=1.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 80.0)]  # capacity probe: 50
        metrics, runtime = run(records, scheme)
        assert scheme.rejected == 1
        assert metrics.failed == 1
        assert metrics.delivered_value == 0.0
        # Nothing was ever locked.
        assert runtime.network.channel(0, 1).attempted_flow(0) == 0.0

    def test_feasible_payment_delegated_to_inner(self):
        scheme = AdmissionControlScheme("spider-waterfilling", admit_fraction=1.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 30.0)]
        metrics, _ = run(records, scheme)
        assert scheme.rejected == 0
        assert metrics.completed == 1

    def test_admit_fraction_scales_the_threshold(self):
        strict = AdmissionControlScheme("spider-waterfilling", admit_fraction=0.4)
        records = [TransactionRecord(0, 1.0, 0, 2, 30.0)]  # 30 > 0.4 * 50
        metrics, _ = run(records, strict)
        assert strict.rejected == 1

        lenient = AdmissionControlScheme("spider-waterfilling", admit_fraction=2.0)
        metrics, _ = run([TransactionRecord(0, 1.0, 0, 2, 80.0)], lenient)
        # 80 <= 2 * 50: admitted (will partially deliver via queue+retry).
        assert lenient.rejected == 0
        assert metrics.delivered_value > 0.0

    def test_wraps_scheme_instances(self):
        from repro.core.waterfilling import WaterfillingScheme

        inner = WaterfillingScheme(num_paths=2)
        scheme = AdmissionControlScheme(inner)
        assert scheme.inner is inner
        assert scheme.name == "admission(spider-waterfilling)"

    def test_atomicity_follows_inner(self):
        atomic = AdmissionControlScheme("max-flow")
        assert atomic.atomic is True
        non_atomic = AdmissionControlScheme("spider-waterfilling")
        assert non_atomic.atomic is False

    def test_admission_decision_happens_once(self):
        """A payment admitted at arrival keeps being retried even when the
        live capacity later falls below its threshold."""
        # fraction 2.0 admits an 80-unit payment against a 50-unit probe;
        # it sends 50, and the remaining 30 keeps retrying at polls even
        # though later probes (capacity ~0) would fail a fresh admission.
        scheme = AdmissionControlScheme("spider-waterfilling", admit_fraction=2.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 80.0)]
        metrics, runtime = run(records, scheme)
        assert scheme.rejected == 0
        assert runtime.payments[0].attempts > 1
        assert metrics.delivered_value == pytest.approx(50.0)

    def test_rejection_uses_live_capacity(self):
        """Back-to-back payments: the second is rejected because the first
        has already drained the probe (§7's router-side estimate)."""
        scheme = AdmissionControlScheme("spider-waterfilling", admit_fraction=1.0)
        records = [
            TransactionRecord(0, 1.0, 0, 2, 45.0),
            TransactionRecord(1, 1.1, 0, 2, 45.0),  # probe sees 5 left
        ]
        metrics, _ = run(records, scheme)
        assert scheme.rejected == 1
        assert metrics.completed == 1

    def test_rejects_whales_preserves_ratio_sacrifices_volume(self):
        """The §7 trade-off, measured in isolation: whales arrive in a quiet
        period, are rejected, and the controlled run matches the plain
        run's ratio while giving up the whales' partial volume."""
        from repro.core.waterfilling import WaterfillingScheme

        # Bidirectional small payments keep the channels balanced, so every
        # small is admitted; the whales (500 >> any probe) are doomed.
        records = []
        for i in range(10):
            records.append(TransactionRecord(2 * i, 0.4 + i, 0, 2, 10.0))
            records.append(TransactionRecord(2 * i + 1, 0.6 + i, 2, 0, 10.0))
        for i in range(5):
            records.append(TransactionRecord(20 + i, 11.0 + i, 0, 2, 500.0))

        plain_metrics, _ = run(records, WaterfillingScheme())
        controlled = AdmissionControlScheme("spider-waterfilling", admit_fraction=1.0)
        controlled_metrics, _ = run(records, controlled)
        assert controlled.rejected == 5
        assert controlled_metrics.success_ratio >= plain_metrics.success_ratio
        # Plain mode partially delivers the doomed whales.
        assert plain_metrics.delivered_value > controlled_metrics.delivered_value

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdmissionControlScheme(admit_fraction=0.0)
        with pytest.raises(ValueError):
            AdmissionControlScheme(num_paths=0)

    def test_registry_integration(self):
        from repro.routing.registry import make_scheme

        scheme = make_scheme("spider-admission", inner="shortest-path")
        assert scheme.name == "admission(shortest-path)"
