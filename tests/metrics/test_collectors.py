"""Tests for metrics collection."""

from __future__ import annotations

import pytest

from repro.core.payments import Payment, TransactionUnit
from repro.metrics.collectors import MetricsCollector
from repro.network.network import PaymentNetwork


def make_payment(pid=0, amount=100.0, arrival=1.0):
    return Payment(payment_id=pid, source=0, dest=1, amount=amount, arrival_time=arrival)


def make_unit(payment, amount):
    payment.register_inflight(amount)
    line = PaymentNetwork()
    line.add_channel(0, 1, 100.0)
    return TransactionUnit(payment, amount, line.path_table.compile((0, 1)), [])


@pytest.fixture
def network():
    net = PaymentNetwork()
    net.add_channel(0, 1, 100.0)
    return net


class TestCollector:
    def test_success_ratio(self, network):
        collector = MetricsCollector()
        for pid in range(4):
            collector.on_payment_arrival(make_payment(pid))
        done = make_payment(10)
        collector.on_payment_completed(done, now=2.0)
        metrics = collector.finalize("x", network, duration=10.0)
        assert metrics.attempted == 4
        assert metrics.success_ratio == 0.25

    def test_success_volume_counts_partials(self, network):
        collector = MetricsCollector()
        payment = make_payment(0, amount=100.0)
        collector.on_payment_arrival(payment)
        unit = make_unit(payment, 30.0)
        collector.on_unit_settled(unit, now=2.0)
        metrics = collector.finalize("x", network, duration=10.0)
        assert metrics.success_volume == pytest.approx(0.3)
        assert metrics.delivered_value == 30.0

    def test_latency_percentiles(self, network):
        collector = MetricsCollector()
        for pid, latency in enumerate([1.0, 2.0, 3.0]):
            payment = make_payment(pid, arrival=0.0)
            collector.on_payment_arrival(payment)
            collector.on_payment_completed(payment, now=latency)
        metrics = collector.finalize("x", network, duration=10.0)
        assert metrics.mean_completion_latency == pytest.approx(2.0)
        assert metrics.p50_completion_latency == pytest.approx(2.0)

    def test_no_completions_yields_none_latency(self, network):
        collector = MetricsCollector()
        metrics = collector.finalize("x", network, duration=10.0)
        assert metrics.mean_completion_latency is None
        assert metrics.success_ratio == 0.0
        assert metrics.success_volume == 0.0

    def test_throughput_series_buckets(self, network):
        collector = MetricsCollector(throughput_bucket=1.0)
        payment = make_payment(0, amount=100.0)
        collector.on_payment_arrival(payment)
        collector.on_unit_settled(make_unit(payment, 10.0), now=0.5)
        collector.on_unit_settled(make_unit(payment, 20.0), now=0.9)
        collector.on_unit_settled(make_unit(payment, 5.0), now=2.5)
        metrics = collector.finalize("x", network, duration=3.0)
        assert metrics.throughput_series == [(0.0, 30.0), (2.0, 5.0)]

    def test_channel_imbalance_reported(self, network):
        network.settle_path((0, 1), network.lock_path((0, 1), 30.0))
        collector = MetricsCollector()
        metrics = collector.finalize("x", network, duration=1.0)
        assert metrics.mean_channel_imbalance == pytest.approx(60.0)
        assert metrics.max_channel_imbalance == pytest.approx(60.0)

    def test_unit_counters(self, network):
        collector = MetricsCollector()
        payment = make_payment(0, amount=50.0)
        collector.on_payment_arrival(payment)
        settled = make_unit(payment, 10.0)
        cancelled = make_unit(payment, 10.0)
        collector.on_unit_settled(settled, now=1.0)
        collector.on_unit_cancelled(cancelled, now=1.0)
        metrics = collector.finalize("x", network, duration=1.0)
        assert metrics.units_settled == 1
        assert metrics.units_cancelled == 1

    def test_as_row_shape(self, network):
        metrics = MetricsCollector().finalize("myscheme", network, duration=1.0)
        row = metrics.as_row()
        assert row["scheme"] == "myscheme"
        assert "success_ratio_%" in row

    def test_invalid_bucket_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(throughput_bucket=0.0)
