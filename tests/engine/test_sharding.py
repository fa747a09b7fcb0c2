"""Spatial sharding: parity, partition plumbing, and the shared store.

The sharding contract is that ``ShardedSession.sharded_execution = False``
(the serial single-process plan) and the default multi-process execution
produce **byte-identical metrics JSON** — the partition, the epoch
windows, the lane order and the merge are all deterministic, and the
parallel mode's only freedom (concurrent shard lanes) is over
row-disjoint store state.  These tests pin that contract per scheme, plus
the pieces it stands on: shared-memory store views across ``fork``,
cross-process probe invalidation, traffic classification, and the scheme
guards that refuse configurations the row-disjointness argument cannot
cover.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.engine import sharding
from repro.engine.sanitizer import BOUNDARY_LANE, ShardSanitizer, ShardViolationError
from repro.engine.sharding import ShardedSession
from repro.engine.session import SimulationSession
from repro.engine.store import ChannelStateStore
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import metrics_to_json
from repro.errors import SimulationError
from repro.topology import partition_network

RUN_SLOW = os.environ.get("REPRO_SLOW_TESTS") == "1"

#: The parity schemes the acceptance criteria pin (>= 3).
PARITY_SCHEMES = [
    ("spider-waterfilling", {}),
    ("shortest-path", {}),
    ("segment-routing", {"num_segments": 2}),
]


def _config(scheme="spider-waterfilling", params=None, topology="ripple-small", **kw):
    base = dict(
        scheme=scheme,
        scheme_params=dict(params or {}),
        topology=topology,
        capacity=400.0,
        num_transactions=220,
        arrival_rate=110.0,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _run_sharded(config, parallel, **kwargs):
    """Run a sharded session with the parity flag set to ``parallel``."""
    saved = ShardedSession.sharded_execution
    ShardedSession.sharded_execution = parallel
    try:
        session = ShardedSession.from_config(config, **kwargs)
        metrics = session.run()
    finally:
        ShardedSession.sharded_execution = saved
    return session, metrics


# ---------------------------------------------------------------------------
# The headline contract: serial plan == multi-process execution, byte for byte
# ---------------------------------------------------------------------------
class TestShardParity:
    @pytest.mark.parametrize("scheme,params", PARITY_SCHEMES)
    def test_serial_and_parallel_metrics_json_identical(self, scheme, params):
        config = _config(scheme=scheme, params=params)
        serial_session, serial = _run_sharded(config, parallel=False, num_shards=2)
        parallel_session, parallel = _run_sharded(config, parallel=True, num_shards=2)
        assert metrics_to_json(serial) == metrics_to_json(parallel)
        # Both modes executed real traffic through both lane kinds.
        stats = parallel_session.dispatch_stats()
        assert stats["num_shards"] == 2
        assert stats["local_payments"] + stats["boundary_crossings"] == 220
        serial_stats = serial_session.dispatch_stats()
        assert serial_stats["parallel"] is False
        assert stats["parallel"] is True

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_shard_count_does_not_change_serial_parallel_parity(self, num_shards):
        config = _config(scheme="shortest-path", num_transactions=150)
        _, serial = _run_sharded(config, parallel=False, num_shards=num_shards)
        _, parallel = _run_sharded(config, parallel=True, num_shards=num_shards)
        assert metrics_to_json(serial) == metrics_to_json(parallel)

    def test_epoch_length_does_not_change_parity(self):
        config = _config(scheme="shortest-path", num_transactions=150)
        _, coarse_serial = _run_sharded(
            config, parallel=False, num_shards=2, epoch=2.0
        )
        _, coarse_parallel = _run_sharded(
            config, parallel=True, num_shards=2, epoch=2.0
        )
        assert metrics_to_json(coarse_serial) == metrics_to_json(coarse_parallel)

    @pytest.mark.skipif(not RUN_SLOW, reason="ripple-huge parity is slow; set REPRO_SLOW_TESTS=1")
    def test_ripple_huge_parity(self):
        config = _config(
            scheme="spider-waterfilling",
            topology="ripple-huge",
            num_transactions=400,
            arrival_rate=200.0,
            capacity=4000.0,
        )
        _, serial = _run_sharded(config, parallel=False, num_shards=4)
        _, parallel = _run_sharded(config, parallel=True, num_shards=4)
        assert metrics_to_json(serial) == metrics_to_json(parallel)

    def test_sessions_run_exactly_once(self):
        session, _ = _run_sharded(_config(num_transactions=40), parallel=False)
        with pytest.raises(SimulationError):
            session.run()


# ---------------------------------------------------------------------------
# Traffic classification
# ---------------------------------------------------------------------------
class TestClassification:
    def test_local_lane_records_have_segment_internal_candidates(self):
        config = _config(scheme="shortest-path", num_transactions=200)
        session, _ = _run_sharded(config, parallel=False, num_shards=2)
        partition = session.partition
        view = session.network.path_service.view(k=1)
        for index, lane in enumerate(session._shard_lanes):
            for record in lane.records:
                for path in view.paths(record.source, record.dest):
                    assert partition.is_internal(path)
                    assert partition.segment_of(path[0]) == index

    def test_every_record_lands_in_exactly_one_lane(self):
        config = _config(num_transactions=200)
        session, _ = _run_sharded(config, parallel=False, num_shards=3)
        lanes = [*session._shard_lanes, session._boundary_lane]
        total = sum(len(lane.records) for lane in lanes)
        assert total == len(session.records)
        ids = [r.txn_id for lane in lanes for r in lane.records]
        assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# Scheme guards
# ---------------------------------------------------------------------------
class TestSchemeGuards:
    def test_transport_scheme_refused(self):
        with pytest.raises(SimulationError, match="native transport"):
            ShardedSession.from_config(
                _config(scheme="spider-queueing", num_transactions=20)
            )

    def test_scheme_without_path_budget_refused(self):
        with pytest.raises(SimulationError, match="num_paths"):
            ShardedSession.from_config(_config(scheme="lnd", num_transactions=20))

    def test_control_plane_scheme_refused_at_run(self):
        session = ShardedSession.from_config(
            _config(scheme="spider-primal-dual", num_transactions=20)
        )
        with pytest.raises(SimulationError, match="control plane"):
            session.run()

    def test_invalid_shard_geometry(self):
        with pytest.raises(ValueError):
            ShardedSession.from_config(_config(num_transactions=10), num_shards=0)
        with pytest.raises(ValueError):
            ShardedSession.from_config(_config(num_transactions=10), epoch=0.0)


# ---------------------------------------------------------------------------
# Shared-memory store
# ---------------------------------------------------------------------------
def _child_reads_and_writes(store, conn):
    try:
        conn.send(float(store.balance[0, 0]))
        store.balance[0, 0] = 77.0
    finally:
        conn.close()


class TestSharedStore:
    def test_share_preserves_values_and_roundtrips(self):
        store = ChannelStateStore()
        cid = store.allocate(50.0, 25.0)
        store.balance[cid, 0] = 31.0
        name = store.share()
        assert store.is_shared and store.shared_memory_name == name
        assert store.balance[cid, 0] == 31.0
        assert store.share() == name  # idempotent
        with pytest.raises(Exception):
            store.allocate(10.0, 5.0)  # growth frozen while shared
        store.close_shared()
        assert not store.is_shared
        assert store.balance[cid, 0] == 31.0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_forked_child_sees_and_mutates_shared_rows(self):
        store = ChannelStateStore()
        cid = store.allocate(50.0, 25.0)
        store.balance[cid, 0] = 25.0
        store.share()
        try:
            ctx = multiprocessing.get_context("fork")
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_child_reads_and_writes, args=(store, child_conn)
            )
            proc.start()
            seen = parent_conn.recv()
            proc.join(timeout=30.0)
            assert seen == 25.0  # child saw the parent's write...
            assert store.balance[cid, 0] == 77.0  # ...and the parent sees the child's
        finally:
            store.close_shared()


# ---------------------------------------------------------------------------
# The write-ownership sanitizer
# ---------------------------------------------------------------------------
class TestShardSanitizer:
    def _two_row_store(self):
        """A store with one row per segment and a lane-0/lane-1 owner map."""
        store = ChannelStateStore()
        cid0 = store.allocate(10.0, 10.0)
        cid1 = store.allocate(10.0, 10.0)
        sanitizer = ShardSanitizer(np.array([0, 1], dtype=np.int8))
        store.attach_sanitizer(sanitizer)
        return store, sanitizer, cid0, cid1

    def test_out_of_segment_write_names_lane_payment_and_row(self):
        store, sanitizer, cid0, cid1 = self._two_row_store()
        sanitizer.set_lane(0)
        sanitizer.set_payment(77)
        store.touch(cid0)  # own row: fine
        store.deposit(cid0, 1, 2.0)  # own row: fine
        with pytest.raises(ShardViolationError) as excinfo:
            store.deposit(cid1, 0, 5.0)  # lane 0 writing segment 1's row
        message = str(excinfo.value)
        assert "lane 0" in message
        assert "payment 77" in message
        assert f"cid={cid1}" in message
        assert "side=0" in message
        assert "segment 1" in message

    def test_batched_write_reports_the_annotated_payment(self):
        store, sanitizer, cid0, cid1 = self._two_row_store()
        sanitizer.set_lane(0)
        sanitizer.annotate(np.array([5, 6]))
        with pytest.raises(ShardViolationError) as excinfo:
            store.lock_many([2 * cid0, 2 * cid1], [1.0, 1.0])  # side 0 of each row
        message = str(excinfo.value)
        assert "payment 6" in message  # the offending row's annotation
        assert f"cid={cid1}" in message

    def test_boundary_and_unset_lanes_are_unrestricted(self):
        store, sanitizer, cid0, cid1 = self._two_row_store()
        store.deposit(cid1, 0, 1.0)  # lane unset: setup writes allowed
        sanitizer.set_lane(BOUNDARY_LANE)
        store.deposit(cid0, 0, 1.0)
        store.deposit(cid1, 0, 1.0)  # boundary lane may touch any row
        assert sanitizer.checks == 3

    def test_cut_channel_write_blames_the_boundary(self):
        store = ChannelStateStore()
        cid = store.allocate(10.0, 10.0)
        sanitizer = ShardSanitizer(np.array([BOUNDARY_LANE], dtype=np.int8))
        store.attach_sanitizer(sanitizer)
        sanitizer.set_lane(1)
        with pytest.raises(ShardViolationError, match="boundary"):
            store.apply_lock(cid, 0, 1.0)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_sanitized_run_matches_unsanitized_metrics(self, parallel):
        config = _config(scheme="shortest-path", num_transactions=120)
        _, plain = _run_sharded(config, parallel=parallel, num_shards=2)
        session, sanitized = _run_sharded(
            config, parallel=parallel, num_shards=2, sanitize=True
        )
        assert metrics_to_json(plain) == metrics_to_json(sanitized)
        # The sanitizer really vetted writes (parent-side count; workers
        # accumulate their own in the forked children).
        assert session._sanitizer is not None


# ---------------------------------------------------------------------------
# Worker crash handling: fast failure, no leaked /dev/shm segment
# ---------------------------------------------------------------------------
def _dying_shard_worker(driver, index, conn):
    """Stand-in worker: lane 0 dies as if SIGKILLed, others run normally."""
    if index == 0:
        os._exit(42)
    _real_shard_worker(driver, index, conn)


_real_shard_worker = sharding._shard_worker


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestWorkerCrash:
    def test_killed_worker_fails_fast_and_leaks_no_shm(self, monkeypatch):
        shared_names = []
        real_share = ChannelStateStore.share

        def recording_share(self):
            name = real_share(self)
            shared_names.append(name)
            return name

        monkeypatch.setattr(ChannelStateStore, "share", recording_share)
        monkeypatch.setattr(sharding, "_shard_worker", _dying_shard_worker)
        config = _config(scheme="shortest-path", num_transactions=120)
        started = time.perf_counter()
        with pytest.raises(SimulationError, match="exit code 42"):
            _run_sharded(config, parallel=True, num_shards=2)
        elapsed = time.perf_counter() - started
        # The watchdog aborts the barriers: no 600 s barrier-timeout wait.
        assert elapsed < 60.0
        # The finally path ran close_shared(): the named segment is gone.
        assert shared_names
        for name in shared_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# Probe invalidation (the cross-process freshness hook)
# ---------------------------------------------------------------------------
class TestProbeInvalidation:
    def test_invalidate_probes_forces_full_regather(self):
        config = _config(scheme="spider-waterfilling", num_transactions=60)
        session = SimulationSession.from_config(config)
        session.run()
        table = session.network.path_table
        assert table._probes
        table.invalidate_probes()
        for probe in table._probes.values():
            if probe is not None:
                assert probe.as_of == -1
                assert probe.values is None
                assert probe.values_list == []
