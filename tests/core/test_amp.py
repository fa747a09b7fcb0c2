"""Tests for AMP atomic multi-path payments and waterfill allocation."""

from __future__ import annotations

import pytest

from repro.core.amp import AmpWaterfillingScheme, waterfill_allocation
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.topology.generators import line_topology
from repro.workload.generator import TransactionRecord


class TestWaterfillAllocation:
    def test_everything_fits_on_one_path(self):
        assert waterfill_allocation(5.0, [10.0]) == [5.0]

    def test_fills_highest_capacity_first(self):
        allocation = waterfill_allocation(4.0, [10.0, 6.0])
        assert allocation == [4.0, 0.0]

    def test_waterfills_to_common_level(self):
        # capacities (10, 6), amount 8: fill 10 down by 4 to 6, then split
        # the remaining 4 equally -> levels (4, 4), allocations (6, 2).
        allocation = waterfill_allocation(8.0, [10.0, 6.0])
        assert allocation == pytest.approx([6.0, 2.0])

    def test_three_paths(self):
        allocation = waterfill_allocation(8.0, [10.0, 6.0, 3.0])
        assert allocation == pytest.approx([6.0, 2.0, 0.0])
        # Residual capacities equalise at the water level (4, 4, 3).

    def test_saturation_returns_capacities(self):
        assert waterfill_allocation(100.0, [3.0, 2.0]) == [3.0, 2.0]

    def test_total_is_preserved(self):
        for amount in (0.5, 3.3, 7.0, 12.4):
            allocation = waterfill_allocation(amount, [5.0, 4.0, 3.5, 0.5])
            expected = min(amount, 13.0)
            assert sum(allocation) == pytest.approx(expected)

    def test_zero_amount(self):
        assert waterfill_allocation(0.0, [5.0, 3.0]) == [0.0, 0.0]

    def test_allocations_never_exceed_capacity(self):
        allocation = waterfill_allocation(9.0, [4.0, 4.0, 4.0])
        for share, cap in zip(allocation, [4.0, 4.0, 4.0]):
            assert share <= cap + 1e-9


class TestAmpScheme:
    def _run(self, records, network):
        runtime = SimulationSession(
            network, records, AmpWaterfillingScheme(), RuntimeConfig(end_time=20.0)
        )
        return runtime.run(), runtime

    def test_atomic_delivery_over_multiple_paths(self, triangle):
        # 70 > any single path (50): AMP must split across both.
        records = [TransactionRecord(0, 1.0, 0, 1, 70.0)]
        metrics, runtime = self._run(records, triangle)
        assert metrics.completed == 1
        assert runtime.network.channel(0, 2).settled_flow(0) > 0
        runtime.network.check_invariants()

    def test_all_units_share_one_base_lock(self, triangle):
        records = [TransactionRecord(0, 1.0, 0, 1, 70.0)]
        _, runtime = self._run(records, triangle)
        # AMP derives every share from a single base key (§4.1): both
        # channels' settled HTLCs exist and the payment completed whole.
        assert runtime.payments[0].is_complete

    def test_infeasible_amount_fails_cleanly(self, triangle):
        records = [TransactionRecord(0, 1.0, 0, 1, 150.0)]
        metrics, runtime = self._run(records, triangle)
        assert metrics.failed == 1
        assert metrics.delivered_value == 0.0
        assert runtime.network.total_inflight() == 0.0

    def test_single_attempt_no_retry(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 60.0)]
        runtime = SimulationSession(
            network, records, AmpWaterfillingScheme(), RuntimeConfig(end_time=20.0)
        )
        metrics = runtime.run()
        assert metrics.failed == 1
        assert runtime.payments[0].attempts == 1

    def test_no_partial_delivery_volume(self):
        """The §4.1 atomicity cost: AMP never contributes partial volume."""
        network = line_topology(3).build_network(default_capacity=100.0)
        records = [TransactionRecord(0, 1.0, 0, 2, 60.0)]
        runtime = SimulationSession(
            network, records, AmpWaterfillingScheme(), RuntimeConfig(end_time=20.0)
        )
        metrics = runtime.run()
        assert metrics.success_volume == 0.0

    def test_invalid_num_paths(self):
        with pytest.raises(ValueError):
            AmpWaterfillingScheme(num_paths=0)
