"""Spatial sharding: one run partitioned across processes.

Every PR so far parallelised *across* runs (``SweepExecutor`` cells);
this layer parallelises *within* one run.  The channel graph is split
into contiguous segments (:mod:`repro.topology.partition`), the
:class:`~repro.engine.store.ChannelStateStore` is re-laid into a
``multiprocessing.shared_memory`` block
(:meth:`~repro.engine.store.ChannelStateStore.share`), and each segment's
traffic runs in its own forked worker process — a full
:class:`~repro.engine.session.SimulationSession` (tick engine, dispatch
plan, pending heap) over the shared arrays.

**The execution plan.**  Payments are classified once, up front, by where
their candidate paths can touch the store:

* a payment is *local to segment s* when every node of every one of its
  candidate paths (the scheme's ``num_paths`` path-service view) lies in
  ``s`` — whatever the scheme decides at attempt time, its probes and
  locks stay inside ``s``'s channel rows;
* everything else — cross-segment pairs, pairs with a candidate crossing
  a cut channel, disconnected pairs — is *boundary traffic*.

Local traffic is assigned to one execution lane per segment; boundary
traffic to one extra lane.  Execution is bulk-synchronous over fixed
*epochs*: within an epoch every shard lane advances to the epoch boundary
(concurrently in worker processes — their store reads and writes are
row-disjoint by the classification above), then the boundary lane alone
advances over the full store while the workers hold at a barrier.  Probe
caches are invalidated at every lane window
(:meth:`~repro.engine.pathtable.PathTable.invalidate_probes`) because the
store's stamp-freshness protocol is per-process.

**Determinism.**  ``sharded_execution = False`` executes the *identical*
plan — same partition, same classification, same epoch windows, same
lane order (shard 0..S−1, then boundary), same collector merge — serially
in one process.  Because concurrent shard lanes touch disjoint store rows
and the boundary lane runs exclusively, the interleaving freedom the
parallel mode exploits is exactly the freedom that cannot change any
value: metrics are byte-identical across both modes
(``tests/engine/test_sharding.py`` pins this per scheme).
"""

from __future__ import annotations

import dataclasses
import os
import threading
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _sentinel_wait
from threading import BrokenBarrierError
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.clock import DEFAULT_QUANTUM
from repro.engine.sanitizer import BOUNDARY_LANE, ShardSanitizer
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.errors import SimulationError
from repro.metrics.collectors import ExperimentMetrics, MetricsCollector
from repro.network.network import PaymentNetwork
from repro.routing.registry import make_scheme
from repro.topology.partition import GraphPartition, partition_network
from repro.workload.generator import TransactionRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.process import BaseProcess
    from multiprocessing.synchronize import Barrier

    from repro.experiments.config import ExperimentConfig
    from repro.routing.base import RoutingScheme

__all__ = ["ShardedSession"]

#: Boundary-lane index in classification maps (not a real segment).
_BOUNDARY = -1
#: Barrier timeout: generous enough for any epoch, small enough that a
#: crashed worker surfaces as an error instead of a hang.
_BARRIER_TIMEOUT = 600.0


def _shard_worker(
    driver: "ShardedSession", index: int, conn: Connection
) -> None:
    """Worker entry point: drive one shard lane through every epoch.

    Runs in a forked child, so it inherits the fully prepared lane and
    the shared-memory store mapping.  Ships the lane's collector and
    counters back over ``conn``; on any failure it aborts the barriers so
    the parent (and the sibling workers) unblock immediately.
    """
    barrier_a, barrier_b = driver._barrier_a, driver._barrier_b
    assert barrier_a is not None and barrier_b is not None
    try:
        sanitizer = driver.network.state_store.sanitizer
        if sanitizer is not None:
            # This process IS lane `index`: every store write from here on
            # must stay on the segment's own rows.
            sanitizer.set_lane(index)
        lane = driver._shard_lanes[index]
        for bound in driver._epoch_bounds:
            driver._invalidate_probe_caches()
            lane.run_window(bound)
            barrier_a.wait(timeout=_BARRIER_TIMEOUT)
            # The parent drives the boundary lane here, exclusively.
            barrier_b.wait(timeout=_BARRIER_TIMEOUT)
        lane.finish_windowed()
        conn.send(
            ("ok", lane.collector, lane.events_processed, lane.dispatch_stats())
        )
    except BaseException as exc:  # surface the failure, then unblock
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            barrier_a.abort()
            barrier_b.abort()
    finally:
        conn.close()


class _WorkerWatchdog:
    """Abort the epoch barriers as soon as any worker dies abnormally.

    A worker killed by a signal (OOM, ``kill -9``) never reaches its
    ``except`` block, so nothing aborts the barriers and the parent would
    sit out the full ``_BARRIER_TIMEOUT``.  This thread waits on the
    workers' process sentinels; the moment one exits with a nonzero code
    it aborts both barriers, turning the silent death into an immediate
    ``BrokenBarrierError`` in the parent and the surviving siblings.
    """

    def __init__(self, workers: Sequence, barriers: Sequence) -> None:
        self._workers = list(workers)
        self._barriers = list(barriers)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, name="shard-watchdog", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _watch(self) -> None:
        pending = {worker.sentinel: worker for worker in self._workers}
        while pending and not self._stop.is_set():
            ready = _sentinel_wait(list(pending), timeout=0.25)
            for sentinel in ready:
                worker = pending.pop(sentinel)
                worker.join(timeout=1.0)
                if worker.exitcode not in (0, None):
                    for barrier in self._barriers:
                        barrier.abort()
                    return


class ShardedSession:
    """One simulation run spread across per-segment worker processes.

    Parameters
    ----------
    network:
        The payment network (its store is re-laid into shared memory for
        the parallel mode).
    records:
        The transaction trace, sorted by arrival time.
    scheme:
        Scheme *name* (each execution lane builds its own instance via
        the registry — scheme state is per lane).
    scheme_params:
        Constructor kwargs for the scheme.
    config:
        Execution parameters; the end time is resolved once so every
        lane stops on the same boundary.
    num_shards:
        Graph segments / worker processes.
    epoch:
        Barrier-exchange period in seconds.  Cross-segment effects become
        visible to shard lanes only at epoch boundaries; smaller epochs
        tighten the coupling, larger ones amortise the barriers.
    partition_seed:
        Seed for the deterministic graph partitioner.

    Class attributes
    ----------------
    sharded_execution:
        When ``True`` (the default) shard lanes run concurrently in
        forked worker processes over the shared-memory store.  ``False``
        executes the identical partitioned epoch plan serially in this
        process — the parity baseline; metrics are byte-identical either
        way (``tests/engine/test_sharding.py`` pins this).
    """

    #: Flip to ``False`` for the single-process parity baseline.
    sharded_execution: bool = True

    def __init__(
        self,
        network: PaymentNetwork,
        records: Sequence[TransactionRecord],
        scheme: str,
        scheme_params: Optional[Dict[str, object]] = None,
        config: Optional[RuntimeConfig] = None,
        num_shards: int = 2,
        epoch: float = 1.0,
        partition_seed: int = 0,
        quantum: float = DEFAULT_QUANTUM,
        sanitize: Optional[bool] = None,
    ):
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if epoch <= 0:
            raise ValueError(f"epoch must be positive, got {epoch}")
        self.network = network
        self.records = sorted(records, key=lambda r: r.arrival_time)
        self.scheme_name = scheme
        self.scheme_params: Dict[str, object] = dict(scheme_params or {})
        self.num_shards = num_shards
        self.epoch = epoch
        self.partition_seed = partition_seed
        self.collector = MetricsCollector()
        base_config = config or RuntimeConfig()
        probe = make_scheme(self.scheme_name, **self.scheme_params)
        self._guard_scheme(probe)
        self._num_paths = int(getattr(probe, "num_paths"))
        if base_config.end_time is not None:
            self._end_time = base_config.end_time
        elif self.records:
            self._end_time = self.records[-1].arrival_time + 10.0 * max(
                base_config.confirmation_delay, 0.1
            )
        else:
            self._end_time = 0.0
        #: Every lane gets the same explicit horizon: a lane's trace slice
        #: must not shorten its run below the global end time.
        self._lane_config = dataclasses.replace(
            base_config, end_time=self._end_time
        )
        self.config = self._lane_config
        self.partition: GraphPartition = partition_network(
            network, num_shards, seed=partition_seed
        )
        lane_records = self._classify()
        self._shard_lanes = [
            self._build_lane(lane_records[s], quantum)
            for s in range(self.num_shards)
        ]
        self._boundary_lane = self._build_lane(lane_records[_BOUNDARY], quantum)
        self._epoch_bounds = self._plan_epochs()
        self._finished = False
        self._ran_parallel = False
        self._shard_results: List[Tuple[MetricsCollector, int, Dict[str, int]]] = []
        # Parallel-mode synchronisation (created per run).
        self._barrier_a: Optional["Barrier"] = None
        self._barrier_b: Optional["Barrier"] = None
        #: Runtime write-ownership checking (``REPRO_SHARD_SANITIZE=1``).
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SHARD_SANITIZE", "") == "1"
        self.sanitize = bool(sanitize)
        self._sanitizer: Optional[ShardSanitizer] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: "ExperimentConfig",
        num_shards: int = 2,
        epoch: float = 1.0,
        partition_seed: int = 0,
        quantum: float = DEFAULT_QUANTUM,
        sanitize: Optional[bool] = None,
    ) -> "ShardedSession":
        """Build the sharded run an :class:`ExperimentConfig` describes.

        Topology, workload and seeds are derived exactly as
        :meth:`SimulationSession.from_config` derives them, so the trace
        is identical to the unsharded run's.
        """
        network, records, _scheme = config.build_simulation_inputs()
        return cls(
            network,
            records,
            config.scheme,
            dict(config.scheme_params),
            config.build_runtime_config(),
            num_shards=num_shards,
            epoch=epoch,
            partition_seed=partition_seed,
            quantum=quantum,
            sanitize=sanitize,
        )

    @staticmethod
    def _guard_scheme(scheme: "RoutingScheme") -> None:
        """Reject schemes the row-disjointness argument cannot cover.

        Sharding's correctness rests on classifying, up front, every
        store row a lane can touch — which requires a source-routed
        scheme whose probes and locks stay on its declared candidate
        paths.  Transport schemes (in-network queues move units through
        arbitrary rows on their own events) are out; so are schemes
        without a ``num_paths`` candidate budget (nothing bounds what
        they probe).
        """
        name = getattr(scheme, "name", type(scheme).__name__)
        if getattr(scheme, "transport", None) is not None:
            raise SimulationError(
                f"scheme {name!r} declares a native transport; hop-by-hop "
                "unit movement cannot be row-partitioned — run it unsharded"
            )
        if getattr(scheme, "num_paths", None) is None:
            raise SimulationError(
                f"scheme {name!r} declares no num_paths candidate budget; "
                "sharding needs the candidate path sets to classify traffic"
            )

    def _classify(self) -> Dict[int, List[TransactionRecord]]:
        """Split the trace into per-segment local lanes + the boundary lane.

        A pair is local to segment ``s`` iff its candidate path set is
        non-empty and every node of every candidate lies in ``s``; all
        records of a pair share its lane.  Discovery runs through the
        shared :class:`~repro.engine.pathservice.PathService` in one
        batched pass (the same artifact the lanes' prefetch reuses).
        """
        pairs: List[Tuple[int, int]] = []
        seen: set = set()
        for record in self.records:
            key = (record.source, record.dest)
            if key not in seen:
                seen.add(key)
                pairs.append(key)
        view = self.network.path_service.view(k=self._num_paths)
        view.prepare(pairs)
        partition = self.partition
        pair_lane: Dict[Tuple[int, int], int] = {}
        for pair, paths in zip(pairs, view.paths_many(pairs)):
            lane = _BOUNDARY
            if paths:
                segments = {
                    partition.segment_of(node) for path in paths for node in path
                }
                if len(segments) == 1:
                    lane = segments.pop()
            pair_lane[pair] = lane
        lanes: Dict[int, List[TransactionRecord]] = {
            s: [] for s in range(self.num_shards)
        }
        lanes[_BOUNDARY] = []
        for record in self.records:
            lanes[pair_lane[(record.source, record.dest)]].append(record)
        return lanes

    def _build_lane(
        self, records: List[TransactionRecord], quantum: float
    ) -> SimulationSession:
        return SimulationSession(
            self.network,
            records,
            make_scheme(self.scheme_name, **self.scheme_params),
            self._lane_config,
            collector=MetricsCollector(),
            quantum=quantum,
        )

    def _plan_epochs(self) -> List[float]:
        """Strictly increasing window boundaries ending exactly at the
        run horizon (computed once; every lane and mode uses this list)."""
        bounds: List[float] = []
        t = 0.0
        while t < self._end_time:
            t = min(self._end_time, t + self.epoch)
            bounds.append(t)
        if not bounds:
            bounds.append(self._end_time)
        return bounds

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ExperimentMetrics:
        """Execute the partitioned plan and return the merged metrics."""
        if self._finished:
            raise SimulationError("a ShardedSession runs exactly once")
        self._finished = True
        if not self.records and self._lane_config.end_time in (None, 0.0):
            return self.collector.finalize(
                scheme=self.scheme_name, network=self.network, duration=0.0
            )
        # One-time setup runs in the parent for every lane — discovery,
        # scheme preparation, trace scheduling — in deterministic lane
        # order, so forked workers inherit fully prepared lanes.
        for lane in self._shard_lanes:
            lane.prepare()
        self._boundary_lane.prepare()
        if self.network.peek_control_plane() is not None:
            raise SimulationError(
                f"scheme {self.scheme_name!r} instantiated the congestion "
                "control plane; its signals are process-global and cannot "
                "be sharded — run it unsharded"
            )
        use_parallel = (
            self.sharded_execution
            and self.num_shards > 1
            and "fork" in get_all_start_methods()
        )
        store = self.network.state_store
        if self.sanitize:
            # Attached before any fork so every worker inherits its own
            # copy; lane context is set per process / per serial window.
            self._sanitizer = ShardSanitizer.from_partition(
                self.network, self.partition
            )
            store.attach_sanitizer(self._sanitizer)
        try:
            if use_parallel:
                self._run_parallel()
            else:
                self._run_serial()
        finally:
            if self._sanitizer is not None:
                store.detach_sanitizer()
        # Deterministic merge: shard 0..S-1, then the boundary lane.
        for shard_collector, _events, _stats in self._shard_results:
            self.collector.merge_from(shard_collector)
        self.collector.merge_from(self._boundary_lane.collector)
        return self.collector.finalize(
            scheme=self.scheme_name,
            network=self.network,
            duration=self._end_time,
        )

    def _invalidate_probe_caches(self) -> None:
        """Reset memoised probes before a lane window (see module doc)."""
        self.network.path_table.invalidate_probes()

    def _set_lane(self, lane: Optional[int]) -> None:
        """Switch the sanitizer's lane context (no-op when not sanitizing)."""
        if self._sanitizer is not None:
            self._sanitizer.set_lane(lane)

    def _run_serial(self) -> None:
        """The parity baseline: the same plan, one process, lane order."""
        try:
            for bound in self._epoch_bounds:
                for index, lane in enumerate(self._shard_lanes):
                    self._set_lane(index)
                    self._invalidate_probe_caches()
                    lane.run_window(bound)
                self._set_lane(BOUNDARY_LANE)
                self._invalidate_probe_caches()
                self._boundary_lane.run_window(bound)
            for index, lane in enumerate(self._shard_lanes):
                self._set_lane(index)
                lane.finish_windowed()
            self._set_lane(BOUNDARY_LANE)
            self._boundary_lane.finish_windowed()
        finally:
            self._set_lane(None)
        self._shard_results = [
            (lane.collector, lane.events_processed, lane.dispatch_stats())
            for lane in self._shard_lanes
        ]

    def _run_parallel(self) -> None:
        """Fork one worker per shard; exchange at epoch barriers.

        ``share()`` happens *inside* the try whose finally calls
        ``close_shared(unlink=True)``, so every exit path — setup
        failures, broken barriers, dead workers — releases the
        ``/dev/shm`` segment.  A watchdog thread waits on the workers'
        process sentinels and aborts both barriers the moment a worker
        dies with a nonzero exit code, so a crash surfaces in well under
        a second instead of after the barrier timeout.
        """
        ctx = get_context("fork")
        store = self.network.state_store
        workers: List = []
        pipes: List[Tuple[Connection, Connection]] = []
        watchdog: Optional[_WorkerWatchdog] = None
        try:
            store.share()
            self._barrier_a = barrier_a = ctx.Barrier(self.num_shards + 1)
            self._barrier_b = barrier_b = ctx.Barrier(self.num_shards + 1)
            pipes = [ctx.Pipe(duplex=False) for _ in range(self.num_shards)]
            workers = [
                ctx.Process(
                    target=_shard_worker,
                    args=(self, index, pipes[index][1]),
                    daemon=True,
                )
                for index in range(self.num_shards)
            ]
            for worker in workers:
                worker.start()
            # From here on this process only ever drives the boundary lane.
            self._set_lane(BOUNDARY_LANE)
            watchdog = _WorkerWatchdog(workers, (barrier_a, barrier_b))
            watchdog.start()
            for bound in self._epoch_bounds:
                try:
                    barrier_a.wait(timeout=_BARRIER_TIMEOUT)
                    self._invalidate_probe_caches()
                    self._boundary_lane.run_window(bound)
                    barrier_b.wait(timeout=_BARRIER_TIMEOUT)
                except BrokenBarrierError:
                    self._raise_worker_failure(pipes, workers)
            self._boundary_lane.finish_windowed()
            self._shard_results = []
            for index, (conn, _child) in enumerate(pipes):
                payload = self._await_result(index, conn, workers[index])
                if payload[0] != "ok":
                    raise SimulationError(
                        f"shard worker {index} failed: {payload[1]}"
                    )
                self._shard_results.append(
                    (payload[1], payload[2], payload[3])
                )
            self._ran_parallel = True
        finally:
            if watchdog is not None:
                watchdog.stop()
            for worker in workers:
                worker.join(timeout=30.0)
                if worker.is_alive():  # pragma: no cover - crash path
                    worker.terminate()
                    worker.join(timeout=5.0)
            for conn, child in pipes:
                conn.close()
                child.close()
            # Restore private heap arrays (final state copies back) and
            # release the shared block; runs on *every* exit path so no
            # /dev/shm segment can outlive the run.
            store.close_shared()
            self._set_lane(None)

    @staticmethod
    def _await_result(
        index: int, conn: Connection, worker: "BaseProcess"
    ) -> Tuple:
        """Wait for one worker's result, failing fast if it died."""
        deadline_polls = int(_BARRIER_TIMEOUT / 0.25)
        for _ in range(max(deadline_polls, 1)):
            if conn.poll(0.25):
                return conn.recv()
            if not worker.is_alive() and not conn.poll(0.0):
                raise SimulationError(
                    f"shard worker {index} died with exit code "
                    f"{worker.exitcode} before reporting a result"
                )
        raise SimulationError(f"shard worker {index} produced no result")

    def _raise_worker_failure(
        self,
        pipes: Sequence[Tuple[Connection, Connection]],
        workers: Sequence,
    ) -> None:
        """A barrier broke: surface the *root-cause* worker failure.

        A worker that merely observed the abort reports a bare
        ``BrokenBarrierError`` — that is a victim, not the culprit.
        Prefer, in order: a real error payload, a nonzero exit code (a
        worker killed before it could report anything), and only then
        the secondary broken-barrier reports.
        """
        reports: List[Tuple[int, str]] = []
        for index, (conn, _child) in enumerate(pipes):
            while conn.poll(0.5):
                payload = conn.recv()
                if payload[0] == "error":
                    reports.append((index, payload[1]))
        for index, message in reports:
            if not message.startswith("BrokenBarrierError"):
                raise SimulationError(
                    f"shard worker {index} failed: {message}"
                )
        for index, worker in enumerate(workers):
            worker.join(timeout=5.0)
            if worker.exitcode not in (None, 0):
                raise SimulationError(
                    f"shard worker {index} died with exit code "
                    f"{worker.exitcode} before reporting an error (killed "
                    "or crashed mid-epoch)"
                )
        for index, message in reports:
            raise SimulationError(f"shard worker {index} failed: {message}")
        raise SimulationError(
            "epoch barrier broke without a worker error report"
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def dispatch_stats(self) -> Dict[str, object]:
        """Shard-extended dispatch counters for observability.

        The :meth:`SimulationSession.dispatch_stats
        <repro.engine.session.SimulationSession.dispatch_stats>` counters
        summed over every lane, plus the shard-layer counters the CLI's
        ``--dispatch-stats`` prints: shard/epoch geometry, boundary
        crossings (payments routed by the boundary lane), and per-lane
        event counts.  Like the session counters these are mode-dependent
        diagnostics, deliberately outside the pinned metrics dict.
        """
        engine_keys = (
            "cohorts",
            "cohort_payments",
            "batched_units",
            "scalar_fallbacks",
            "replayed_locks",
            "failed_locks",
        )
        totals: Dict[str, int] = {key: 0 for key in engine_keys}
        per_shard_events: List[int] = []
        for _collector, events, stats in self._shard_results:
            per_shard_events.append(events)
            for key in engine_keys:
                totals[key] += int(stats.get(key, 0))
        boundary_stats = self._boundary_lane.dispatch_stats()
        for key in engine_keys:
            totals[key] += int(boundary_stats.get(key, 0))
        merged: Dict[str, object] = dict(totals)
        merged["num_shards"] = self.num_shards
        merged["epoch_barriers"] = len(self._epoch_bounds)
        merged["parallel"] = self._ran_parallel
        merged["local_payments"] = sum(
            len(lane.records) for lane in self._shard_lanes
        )
        merged["boundary_crossings"] = len(self._boundary_lane.records)
        merged["per_shard_events"] = per_shard_events
        merged["boundary_events"] = self._boundary_lane.events_processed
        merged["segment_sizes"] = self.partition.sizes()
        merged["cut_channels"] = len(self.partition.cut_edges)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSession(scheme={self.scheme_name!r}, "
            f"shards={self.num_shards}, records={len(self.records)})"
        )
