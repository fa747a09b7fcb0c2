"""Metrics collection.

The paper's two headline metrics (§6.1):

* **success ratio** — completed payments / attempted payments,
* **success volume** — value delivered / value attempted, where non-atomic
  payments contribute partial deliveries that settled before their deadline.

The collector additionally records diagnostics the NSDI version reports:
completion latency percentiles, a settled-value time series (throughput),
unit counts, and end-of-run channel imbalance statistics.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.payments import Payment, TransactionUnit
from repro.network.network import PaymentNetwork

__all__ = ["ExperimentMetrics", "MetricsCollector"]


@dataclass
class ExperimentMetrics:
    """Summary of one simulation run."""

    scheme: str
    attempted: int
    completed: int
    failed: int
    attempted_value: float
    delivered_value: float
    completed_value: float
    success_ratio: float
    success_volume: float
    mean_completion_latency: Optional[float]
    p50_completion_latency: Optional[float]
    p99_completion_latency: Optional[float]
    units_settled: int
    units_cancelled: int
    total_fees_paid: float
    mean_channel_imbalance: float
    max_channel_imbalance: float
    total_inflight_at_end: float
    duration: float
    throughput_series: List[Tuple[float, float]] = field(default_factory=list)
    #: Deepest router queue observed (hop-by-hop transports; 0 otherwise).
    max_queue_depth: int = 0
    #: Mean depth of the queue each parked unit joined (0 if none parked).
    mean_queue_depth: float = 0.0
    #: Fraction of serviced hop-queue units that came out congestion-marked
    #: (the windowed transport's 1-bit signal; 0 when no units queued).
    mean_mark_rate: float = 0.0
    #: Run-mean of the mean channel capacity price λ, sampled at every
    #: price update (0 for schemes that maintain no prices).
    mean_price: float = 0.0

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "scheme": self.scheme,
            "attempted": self.attempted,
            "completed": self.completed,
            "success_ratio_%": round(100.0 * self.success_ratio, 2),
            "success_volume_%": round(100.0 * self.success_volume, 2),
            "mean_latency_s": (
                round(self.mean_completion_latency, 3)
                if self.mean_completion_latency is not None
                else None
            ),
            "max_qdepth": self.max_queue_depth,
            "mean_qdepth": round(self.mean_queue_depth, 2),
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable dict of every field (round-trips exactly)."""
        out = dict(self.__dict__)
        out["throughput_series"] = [list(point) for point in self.throughput_series]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentMetrics":
        """Inverse of :meth:`to_dict` (e.g. after a sweep cache hit)."""
        payload = dict(data)
        payload["throughput_series"] = [
            (float(t), float(v)) for t, v in payload.get("throughput_series", [])
        ]
        return cls(**payload)


class MetricsCollector:
    """Accumulates events during a run; finalised into ExperimentMetrics.

    Parameters
    ----------
    throughput_bucket:
        Width (seconds) of the settled-value time-series buckets.
    """

    def __init__(self, throughput_bucket: float = 1.0):
        if throughput_bucket <= 0:
            raise ValueError(f"throughput_bucket must be positive, got {throughput_bucket!r}")
        self._bucket = throughput_bucket
        self.attempted = 0
        self.attempted_value = 0.0
        self.completed = 0
        self.completed_value = 0.0
        self.failed = 0
        self.delivered_value = 0.0
        self.units_settled = 0
        self.units_cancelled = 0
        self.total_fees_paid = 0.0
        self.max_queue_depth = 0
        self._queue_depth_sum = 0
        self._queue_depth_events = 0
        self._mark_rate = 0.0
        self._mean_price = 0.0
        self._latencies: List[float] = []
        self._settled_by_bucket: Dict[int, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Event hooks (called by the runtime)
    # ------------------------------------------------------------------
    def on_payment_arrival(self, payment: Payment) -> None:
        """A payment entered the system."""
        self.attempted += 1
        self.attempted_value += payment.amount

    def on_payment_completed(self, payment: Payment, now: float) -> None:
        """A payment fully settled."""
        self.completed += 1
        self.completed_value += payment.amount
        self._latencies.append(now - payment.arrival_time)

    def on_payment_failed(self, payment: Payment, now: float) -> None:
        """A payment terminally failed (partial delivery already counted)."""
        self.failed += 1

    def on_unit_settled(self, unit: TransactionUnit, now: float) -> None:
        """A transaction unit settled end-to-end."""
        self.units_settled += 1
        self.delivered_value += unit.amount
        self.total_fees_paid += unit.fee
        self._settled_by_bucket[int(now // self._bucket)] += unit.amount

    def on_unit_cancelled(self, unit: TransactionUnit, now: float) -> None:
        """A transaction unit was cancelled and refunded."""
        self.units_cancelled += 1

    def on_unit_queued(self, depth: int) -> None:
        """A unit parked in a router queue that now holds ``depth`` units.

        Called by the hop-by-hop transports on every enqueue, with the live
        queue depth *after* the unit joined — the same number the native
        transport writes into ``ChannelStateStore.queue_depth``.
        """
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self._queue_depth_sum += depth
        self._queue_depth_events += 1

    def on_congestion_summary(self, mark_rate: float, mean_price: float) -> None:
        """End-of-run congestion columns, read off the control plane.

        Called by the session when the run instantiated a
        :class:`~repro.engine.signals.ControlPlane`.
        """
        self._mark_rate = mark_rate
        self._mean_price = mean_price

    # ------------------------------------------------------------------
    def finalize(
        self,
        scheme: str,
        network: PaymentNetwork,
        duration: float,
    ) -> ExperimentMetrics:
        """Produce the immutable summary for this run."""
        imbalances = [c.imbalance() for c in network.channels()]
        latencies = np.asarray(self._latencies) if self._latencies else None
        series = sorted(
            (bucket * self._bucket, value)
            for bucket, value in self._settled_by_bucket.items()
        )
        return ExperimentMetrics(
            scheme=scheme,
            attempted=self.attempted,
            completed=self.completed,
            failed=self.failed,
            attempted_value=self.attempted_value,
            delivered_value=self.delivered_value,
            completed_value=self.completed_value,
            success_ratio=(self.completed / self.attempted) if self.attempted else 0.0,
            success_volume=(
                self.delivered_value / self.attempted_value
                if self.attempted_value > 0
                else 0.0
            ),
            mean_completion_latency=(
                float(latencies.mean()) if latencies is not None else None
            ),
            p50_completion_latency=(
                float(np.percentile(latencies, 50)) if latencies is not None else None
            ),
            p99_completion_latency=(
                float(np.percentile(latencies, 99)) if latencies is not None else None
            ),
            units_settled=self.units_settled,
            units_cancelled=self.units_cancelled,
            total_fees_paid=self.total_fees_paid,
            mean_channel_imbalance=(
                float(np.mean(imbalances)) if imbalances else 0.0
            ),
            max_channel_imbalance=(
                float(np.max(imbalances)) if imbalances else 0.0
            ),
            total_inflight_at_end=network.total_inflight(),
            duration=duration,
            throughput_series=series,
            max_queue_depth=self.max_queue_depth,
            mean_queue_depth=(
                self._queue_depth_sum / self._queue_depth_events
                if self._queue_depth_events
                else 0.0
            ),
            mean_mark_rate=self._mark_rate,
            mean_price=self._mean_price,
        )
