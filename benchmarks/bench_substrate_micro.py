"""Micro-benchmarks of the substrates (engine, channels, max-flow, LP).

These are true pytest-benchmark timings (many rounds) of the hot paths that
bound how large a simulation the library can run.

Run with::

    pytest benchmarks/bench_substrate_micro.py --benchmark-only

The module is also directly executable as the smoke run used by CI
(about a minute)::

    python benchmarks/bench_substrate_micro.py --out BENCH_substrate.json

which records the hop-by-hop queueing transport (``spider-queueing`` on a
congested line, events/sec), the ``path_ops`` microbenchmark (batch
bottleneck probes and lock+settle round-trips through the PathTable), the
``signals`` microbenchmark (ControlPlane price updates and mark scans),
the ``path_discovery`` microbenchmark (k-edge-disjoint pairs/sec on the
10k-node Ripple-like graph: the scalar per-pair BFS provider vs. the CSR
lockstep provider, cold vs. memoised vs. disk-artifact warm), the
``dispatch`` microbenchmark (the macro-tick cohort pipeline on the 10k-node
graph, a same-tick burst sweep at cohort sizes 1/16/256, and a fee-bearing
workload with its cohort counters), a bounded ``scale`` smoke (a 10k-node
Ripple-like waterfilling run plus a parallel SweepExecutor grid exercising
the persistent path cache; ``prepare()`` — discovery, prefetch, trace
scheduling — is timed apart from the event loop).

Absolute rates are recorded, not gated: they move with the machine, and
the end-to-end benchmark (``benchmarks/e2e/run.py --smoke``) is the speed
gate.  Pass ``--assert-floor`` to fail on the same-run ratios and counts
that do not: CSR path discovery under 28.6x the scalar BFS, or a
fee-bearing dispatch fallback rate above a fifth of the fee-free-only
envelope.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.engine.events import TickEngine
from repro.fluid import solve_fluid_lp
from repro.fluid.paths import k_edge_disjoint_paths
from repro.network.network import PaymentNetwork
from repro.routing.max_flow import edmonds_karp
from repro.topology import isp_topology, ripple_topology
from repro.topology.examples import FIG4_DEMANDS, fig4_topology
from repro.fluid.paths import all_simple_paths


# ----------------------------------------------------------------------
# Event-engine workloads: chained timers keep the heap shallow and stress
# per-event overhead; the fan-out pre-schedules every event, so the heap is
# deep and ordering comparisons dominate.
# ----------------------------------------------------------------------
def _chained_tick(n: int) -> int:
    eng = TickEngine()
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count < n:
            eng.schedule_after(0.001, tick)

    eng.schedule_after(0.001, tick)
    eng.run()
    return count


def _fanout_tick(n: int) -> int:
    eng = TickEngine()
    count = 0

    def fire():
        nonlocal count
        count += 1

    for i in range(n):
        eng.schedule_at_tick(((i * 2654435761) % n) * 1000, fire)
    eng.run()
    return count


def test_tick_engine_event_throughput(benchmark):
    """Schedule-and-run 10k chained events on the slab-queue engine."""
    assert benchmark(_chained_tick, 10_000) == 10_000


def test_tick_engine_fanout_throughput(benchmark):
    """Drain 10k pre-scheduled events (deep heap)."""
    assert benchmark(_fanout_tick, 10_000) == 10_000


def test_channel_lock_settle_throughput(benchmark):
    """Lock+settle 1k HTLCs on one channel."""

    def run():
        network = PaymentNetwork()
        channel = network.add_channel(0, 1, 1_000_000.0)
        for _ in range(500):
            htlc = channel.lock(0, 10.0)
            channel.settle(htlc)
            htlc = channel.lock(1, 10.0)
            channel.settle(htlc)
        return channel.num_settled

    assert benchmark(run) == 1_000


def test_path_lock_rollback(benchmark):
    """Atomic path locking with rollback pressure on a line network."""
    from repro.topology import line_topology

    def run():
        network = line_topology(6).build_network(default_capacity=100.0)
        done = 0
        for _ in range(200):
            htlcs = network.lock_path((0, 1, 2, 3, 4, 5), 0.25)
            network.settle_path((0, 1, 2, 3, 4, 5), htlcs)
            done += 1
        return done

    assert benchmark(run) == 200


def test_pathtable_batch_probe(benchmark):
    """Batch bottleneck probe of 48 k-path sets through the PathTable."""
    network, path_sets = _path_ops_fixture(num_pairs=48)
    table = network.path_table
    for paths in path_sets:
        table.bottleneck_many(paths)

    def run():
        total = 0.0
        for paths in path_sets:
            total += table.bottleneck_many(paths, refresh=True)[0]
        return total

    assert benchmark(run) > 0


def test_max_flow_on_isp_balances(benchmark):
    """One max-flow computation at ISP scale (the per-transaction cost the
    paper calls prohibitive, §3)."""
    network = isp_topology().build_network(default_capacity=3_000.0)
    capacity = {}
    for channel in network.channels():
        a, b = channel.endpoints
        capacity[(a, b)] = channel.balance(a)
        capacity[(b, a)] = channel.balance(b)

    value, _ = benchmark(lambda: edmonds_karp(capacity, 8, 20))
    assert value > 0


def test_k_disjoint_paths_on_ripple(benchmark):
    """Path-set computation on the Ripple-like graph."""
    adjacency = ripple_topology("small", seed=0).adjacency()

    paths = benchmark(lambda: k_edge_disjoint_paths(adjacency, 0, 150, 4))
    assert paths


def test_fluid_lp_on_fig4(benchmark):
    """The complete-path-set balanced LP on the example graph."""
    adjacency = fig4_topology().adjacency()
    path_set = {pair: all_simple_paths(adjacency, *pair) for pair in FIG4_DEMANDS}

    solution = benchmark(
        lambda: solve_fluid_lp(FIG4_DEMANDS, path_set, balance="equality")
    )
    assert solution.throughput > 0


# ----------------------------------------------------------------------
# Hop-by-hop transport: the §4.2 in-network-queue scheme on a congested
# line through the session's hop transport.
# ----------------------------------------------------------------------
def _hop_config(num_transactions: int):
    from repro.experiments.config import ExperimentConfig

    # Capacity below offered load so units park at routers: the run
    # exercises enqueue/timeout/service, not just the happy path.
    return ExperimentConfig(
        scheme="spider-queueing",
        topology="line-5",
        capacity=600.0,
        num_transactions=num_transactions,
        arrival_rate=100.0,
        seed=11,
    )


def run_hop_transport(transactions: int = 1_500, repeats: int = 3) -> dict:
    """Events/sec of the hop-by-hop workload, best of ``repeats``.

    Construction stays outside the timed region — the timer covers
    ``run()``, i.e. event dispatch plus the scheme's per-poll routing
    work.
    """
    from repro.engine.session import SimulationSession

    best_elapsed, events = float("inf"), 0
    for _ in range(repeats):
        session = SimulationSession.from_config(_hop_config(transactions))
        start = time.perf_counter()
        session.run()
        best_elapsed = min(best_elapsed, time.perf_counter() - start)
        events = session.events_processed
    return {
        "transactions": transactions,
        "events": events,
        "events_per_sec": round(events / best_elapsed),
    }


# ----------------------------------------------------------------------
# Path-operation microbenchmark: batch bottleneck probes and lock+settle
# round-trips through the PathTable on a Ripple-scale store.
# ----------------------------------------------------------------------
def _path_ops_fixture(num_pairs: int = 48, k: int = 4):
    """A Ripple-like network plus ``num_pairs`` k-path sets over it."""
    from repro.routing.base import PathCache
    from repro.simulator.rng import make_rng

    network = ripple_topology("small", seed=0).build_network(default_capacity=200.0)
    cache = PathCache.from_network(network, k=k)
    rng = make_rng(7)
    nodes = sorted(network.nodes())
    path_sets = []
    while len(path_sets) < num_pairs:
        source, dest = rng.choice(len(nodes), size=2, replace=False)
        paths = cache.paths(nodes[int(source)], nodes[int(dest)])
        if paths:
            path_sets.append(paths)
    return network, path_sets


def _best_of(fn, repeats: int) -> float:
    """Fastest of ``repeats`` timed calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_path_ops_microbench(
    num_pairs: int = 48, iterations: int = 200, repeats: int = 3
) -> dict:
    """Path-operation rates on one shared store.

    * ``bottleneck_batch``: probes/sec scoring a whole k-path set (one
      pair) per probe, forced to recompute (``refresh=True``) so the number
      times the gather + masked min, and again served from the memo.
    * ``lock_settle``: lock+settle round-trips/sec along one path
      (forward then reverse, so balances are restored and the timing is
      steady-state).
    """
    network, path_sets = _path_ops_fixture(num_pairs=num_pairs)
    table = network.path_table
    for paths in path_sets:  # compile outside the timed region
        table.bottleneck_many(paths)

    def probe_all(refresh: bool):
        for _ in range(iterations):
            for paths in path_sets:
                table.bottleneck_many(paths, refresh=refresh)

    probes = num_pairs * iterations
    probe_time = _best_of(lambda: probe_all(True), repeats)
    cached_time = _best_of(lambda: probe_all(False), repeats)

    # Lock+settle round-trips on one mid-length path, forward then reverse.
    path = max((p for paths in path_sets for p in paths), key=len)
    reverse = tuple(reversed(path))
    trips = 4 * iterations

    def round_trips():
        for _ in range(2 * iterations):
            for p in (path, reverse):
                network.settle_path(p, network.lock_path(p, 1.0))

    lock_time = _best_of(round_trips, repeats)
    return {
        "network": {"nodes": network.num_nodes, "channels": network.num_channels},
        "path_sets": num_pairs,
        "bottleneck_batch": {
            "probes_per_sec": round(probes / probe_time),
            "cached_probes_per_sec": round(probes / cached_time),
        },
        "lock_settle": {
            "path_hops": len(path) - 1,
            "round_trips_per_sec": round(trips / lock_time),
        },
    }


# ----------------------------------------------------------------------
# Congestion-signal microbenchmark: the ControlPlane's price updates and
# mark scans.
# ----------------------------------------------------------------------
class _ScanUnit:
    """Minimal stand-in for a HopUnit in the mark-scan benchmark."""

    __slots__ = ("marked",)

    def __init__(self):
        self.marked = False


def run_signals_microbench(
    iterations: int = 200, batch: int = 2048, repeats: int = 3
) -> dict:
    """Congestion-signalling rates on one shared store.

    * ``price_update``: channel price updates/sec through a realistic
      observe-then-update control loop (8 path observations per dual
      step, :meth:`ControlPlane.update_prices` across every channel).
    * ``mark_scan``: serviced-unit scans/sec through
      :meth:`ControlPlane.observe_service` on a large service batch.
    """
    from repro.simulator.rng import make_rng

    network, path_sets = _path_ops_fixture(num_pairs=16)
    control = network.control_plane
    control.configure_prices(0.5)
    paths = [path for paths in path_sets for path in paths][:8]
    for path in paths:  # compile outside the timed region
        control.observe_path(path, 1.0)
    control.update_prices(dt=1.0, eta=0.1, kappa=0.1)

    def control_loop():
        for _ in range(iterations):
            for path in paths:
                control.observe_path(path, 5.0)
            control.update_prices(dt=1.0, eta=0.1, kappa=0.1)

    price_time = _best_of(control_loop, repeats)

    marking = PaymentNetwork()
    marking.add_channel(0, 1, 1000.0)
    scanner = marking.control_plane
    scanner.configure_marking(0.75)
    delays = [float(d) for d in make_rng(5).uniform(0.0, 1.0, size=batch)]
    units = [_ScanUnit() for _ in range(batch)]

    def scans():
        for _ in range(iterations):
            scanner.observe_service(0, 0, delays, units)

    scan_time = _best_of(scans, repeats)
    return {
        "channels": network.num_channels,
        "price_update": {
            "updates_per_sec": round(iterations * network.num_channels / price_time),
        },
        "mark_scan": {
            "batch": batch,
            "scans_per_sec": round(iterations * batch / scan_time),
        },
    }


# ----------------------------------------------------------------------
# Path-discovery microbenchmark: k edge-disjoint shortest paths on the
# 10k-node Ripple-like graph — the per-pair scalar BFS the seed ran vs.
# the PathService's CSR provider (all pairs through one ``paths_many``,
# i.e. one lockstep chunk), plus the memoised and disk-artifact warm
# paths (cold vs. cached).
# ----------------------------------------------------------------------
#: Floor of the CSR-vs-scalar ratio: 0.6x the lowest of five local runs
#: of the lockstep kernel (49.8, 47.7, 49.0, 51.6, 52.2).  The per-pair
#: search it replaced cleared 16.6x, so a fall back to pair-at-a-time
#: speed trips the gate.
DISCOVERY_FLOOR = 28.6


def run_path_discovery_microbench(
    num_pairs: int = 48, k: int = 4, repeats: int = 3
) -> dict:
    """Pairs/sec of scalar vs. CSR discovery on ripple-huge, cold vs. warm.

    All modes resolve the identical pair list and are asserted
    byte-identical.  ``speedup`` is CSR-cold over scalar-cold — both sides
    timed on this machine in the same run, so the ratio is
    hardware-independent (floor-gated at ``DISCOVERY_FLOOR``).
    ``cached`` times the in-process PersistentCache memo hit and
    ``disk_warm`` a fresh process-level store serving the persisted
    artifact.
    """
    import tempfile

    from repro.engine.pathservice import (
        CsrDisjointProvider,
        CsrGraph,
        PathService,
        PersistentCache,
        ScalarDisjointProvider,
    )
    from repro.simulator.rng import make_rng

    adjacency = {
        node: sorted(neighbours)
        for node, neighbours in ripple_topology("huge", seed=0)
        .adjacency()
        .items()
    }
    build_start = time.perf_counter()
    graph = CsrGraph.from_adjacency(adjacency)  # includes the twin index
    build_elapsed = time.perf_counter() - build_start
    nodes = sorted(adjacency)
    rng = make_rng(3)
    pairs = [
        (nodes[int(a)], nodes[int(b)])
        for a, b in (
            rng.choice(len(nodes), size=2, replace=False)
            for _ in range(num_pairs)
        )
    ]

    scalar = ScalarDisjointProvider(adjacency, k)
    csr = CsrDisjointProvider(graph, k)
    expected = scalar.paths_many(pairs)
    assert csr.paths_many(pairs) == expected  # byte-identical discovery
    scalar_time = _best_of(lambda: scalar.paths_many(pairs), repeats)
    csr_time = _best_of(lambda: csr.paths_many(pairs), repeats)

    with tempfile.TemporaryDirectory() as tmp:
        PersistentCache.clear_shared()
        service = PathService.from_adjacency(adjacency, cache_dir=tmp)
        service.prepare(pairs, k=k)  # populate memo + write the artifact
        assert service.paths_many(pairs, k=k) == expected
        cached_time = _best_of(lambda: service.paths_many(pairs, k=k), repeats)
        PersistentCache.clear_shared()
        disk_start = time.perf_counter()
        warm = PathService.from_adjacency(adjacency, cache_dir=tmp)
        loaded = warm.paths_many(pairs, k=k)
        disk_time = time.perf_counter() - disk_start
        assert loaded == expected
        PersistentCache.clear_shared()

    return {
        "network": {
            "nodes": len(nodes),
            "channels": int(graph.indices.shape[0] // 2),
        },
        "pairs": num_pairs,
        "k": k,
        "csr_build_seconds": round(build_elapsed, 3),
        "scalar_pairs_per_sec": round(num_pairs / scalar_time, 1),
        "csr_pairs_per_sec": round(num_pairs / csr_time, 1),
        "speedup": round(scalar_time / csr_time, 3),
        "cached_pairs_per_sec": round(num_pairs / cached_time),
        "disk_warm_pairs_per_sec": round(num_pairs / disk_time, 1),
    }


# ----------------------------------------------------------------------
# Dispatch microbenchmark: the macro-tick cohort pipeline on the 10k-node
# graph.  prepare() — transport build, CSR discovery, pair prefetch, trace
# scheduling — runs outside the timed region, so the numbers isolate the
# dispatch loop itself.
# ----------------------------------------------------------------------
#: The fee-bearing workload's fallback-rate envelope: path sets had to be
#: fee-free to batch, so every fee-bearing payment fell back (rate 1.0).
#: The floor gate holds the measured rate under a fifth of it.
FEE_FREE_ONLY_FALLBACK_RATE = 1.0


def run_dispatch_microbench(
    transactions: int = 600, preset: str = "huge", sweep_total: int = 512
) -> dict:
    """Dispatch throughput, a same-tick cohort sweep and a fee workload.

    The sweep re-stamps one seeded trace into arrival bursts of 1, 16 and
    256 same-tick payments (total volume held fixed), recording how the
    cohort kernels scale with burst size, as transactions per second (a
    burst is one cohort event, so event counts shrink with it).

    ``fee_workload`` times a ripple-style fee-bearing trace (proportional
    fee schedule, 64-payment same-tick bursts whose hot-pair path sets
    overlap heavily) and records the DispatchPlan counters; its
    ``fallback_rate`` is what the floor gate holds under a fifth of
    ``FEE_FREE_ONLY_FALLBACK_RATE``.
    """
    from dataclasses import replace as dc_replace

    from repro.engine.session import SimulationSession
    from repro.experiments.config import ExperimentConfig

    base = ExperimentConfig(
        scheme="spider-waterfilling",
        topology=f"ripple-{preset}",
        capacity=500.0,
        num_transactions=transactions,
        arrival_rate=250.0,
        seed=23,
    )

    def measure(config, records=None):
        """(events fired, seconds, dispatch stats) of one event loop.

        ``prepare()`` (scheme prep, probe/profile priming, trace
        scheduling) runs untimed; the timed region is the tick-engine
        loop alone — no end-of-run metrics finalisation, which scans all
        33k channels and would swamp these sub-second loops.
        """
        network, trace, scheme = config.build_simulation_inputs()
        session = SimulationSession(
            network,
            records if records is not None else trace,
            scheme,
            config.build_runtime_config(),
        )
        session.prepare()
        start = time.perf_counter()
        session.sim.run(until=session.end_time)
        elapsed = time.perf_counter() - start
        return session.events_processed, elapsed, session.dispatch_stats()

    def best_of(config, records=None, repeats: int = 3):
        events, times, stats = 0, [], {}
        for _ in range(repeats):
            events, elapsed, stats = measure(config, records)
            times.append(elapsed)
        return events, min(times), stats

    events, elapsed, _ = best_of(base)
    report = {
        "transactions": transactions,
        "events_per_sec": round(events / elapsed),
        "cohort_sweep": {},
    }

    _, trace, _ = base.build_simulation_inputs()
    trace = trace[:sweep_total]
    for cohort in (1, 16, 256):
        burst_gap = 0.2 * cohort  # keep offered load per second comparable
        bursts = [
            dc_replace(record, arrival_time=round((i // cohort) * burst_gap, 6))
            for i, record in enumerate(trace)
        ]
        events, elapsed, _ = best_of(base, records=bursts)
        report["cohort_sweep"][str(cohort)] = {
            "transactions": len(bursts),
            "events": events,
            "txns_per_sec": round(len(bursts) / elapsed, 1),
        }

    fee_config = ExperimentConfig(
        scheme="spider-waterfilling",
        topology=f"ripple-{preset}",
        capacity=500.0,
        num_transactions=transactions,
        arrival_rate=250.0,
        seed=23,
        base_fee=0.01,
        fee_rate=0.001,
        max_fee_fraction=0.25,
    )
    _, fee_trace, _ = fee_config.build_simulation_inputs()
    fee_trace = fee_trace[:sweep_total]
    fee_bursts = [
        dc_replace(record, arrival_time=round((i // 64) * 12.8, 6))
        for i, record in enumerate(fee_trace)
    ]
    events, elapsed, stats = best_of(fee_config, records=fee_bursts)
    cohort_payments = stats["cohort_payments"]
    fallbacks = stats["scalar_fallbacks"]
    report["fee_workload"] = {
        "transactions": len(fee_bursts),
        "events": events,
        "txns_per_sec": round(len(fee_bursts) / elapsed, 1),
        "cohorts": stats["cohorts"],
        "cohort_payments": cohort_payments,
        "batched_units": stats["batched_units"],
        "scalar_fallbacks": fallbacks,
        "fallback_rate": round(fallbacks / cohort_payments, 4)
        if cohort_payments
        else None,
    }
    return report


# ----------------------------------------------------------------------
# Scale smoke: a 10k-node Ripple-like topology through the session engine
# and a parallel SweepExecutor grid (bounded runtime; the CI smoke runs it
# and BENCH_substrate.json keeps the numbers).
# ----------------------------------------------------------------------
def run_scale_smoke(
    transactions: int = 600, preset: str = "huge", processes: int = 2
) -> dict:
    """One bounded waterfilling run at 10k-node scale, plus a 2-cell sweep.

    Records events/sec and transactions/sec of the direct session run
    (one-time ``prepare()`` — discovery, pair prefetch, trace scheduling —
    is reported apart as ``prepare_seconds``; the run is measured best-of-2
    because sub-100ms loops are jittery, and the two runs must serialise
    identical metrics) and the wall time of the same workload fanned out
    across SweepExecutor workers with the persistent path cache active —
    the parent precomputes each topology's pair sets once and every worker
    loads the artifact from disk.
    """
    import tempfile

    from repro.engine.pathservice import PersistentCache
    from repro.engine.session import SimulationSession
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.executor import SweepExecutor
    from repro.metrics.report import metrics_to_json

    base = ExperimentConfig(
        scheme="spider-waterfilling",
        topology=f"ripple-{preset}",
        capacity=500.0,
        num_transactions=transactions,
        arrival_rate=250.0,
        seed=23,
    )
    PersistentCache.clear_shared()
    build_start = time.perf_counter()
    session = SimulationSession.from_config(base)
    build_elapsed = time.perf_counter() - build_start
    network = session.network
    prepare_start = time.perf_counter()
    session.prepare()
    prepare_elapsed = time.perf_counter() - prepare_start
    run_start = time.perf_counter()
    metrics = session.run()
    run_elapsed = time.perf_counter() - run_start
    events_fired = session.events_processed

    rerun = SimulationSession.from_config(base)
    rerun.prepare()
    rerun_start = time.perf_counter()
    rerun_metrics = rerun.run()
    run_elapsed = min(run_elapsed, time.perf_counter() - rerun_start)
    assert metrics_to_json(rerun_metrics) == metrics_to_json(metrics)

    PersistentCache.clear_shared()  # sweep workers start cold, like CI
    with tempfile.TemporaryDirectory() as path_cache_dir:
        executor = SweepExecutor(
            base,
            processes=processes,
            cache_dir=None,
            path_cache_dir=path_cache_dir,
        )
        sweep_start = time.perf_counter()
        sweep = executor.capacity_sweep([400.0, 600.0], ["spider-waterfilling"])
        sweep_elapsed = time.perf_counter() - sweep_start
        path_artifacts = len(os.listdir(path_cache_dir))
    return {
        "network": {"nodes": network.num_nodes, "channels": network.num_channels},
        "transactions": transactions,
        "build_seconds": round(build_elapsed, 2),
        "prepare_seconds": round(prepare_elapsed, 2),
        "run_seconds": round(run_elapsed, 3),
        "events_per_sec": round(events_fired / run_elapsed),
        "transactions_per_sec": round(transactions / run_elapsed, 1),
        "success_ratio": round(metrics.success_ratio, 4),
        "sweep": {
            "cells": len(sweep),
            "processes": processes,
            "wall_seconds": round(sweep_elapsed, 2),
            "path_artifacts": path_artifacts,
        },
    }


def check_floor(report: dict):
    """Regression gate over same-run ratios and counts; returns an error
    string, or ``None`` when every clause holds.

    * ``path_discovery``: the CSR-vs-scalar speedup on the 10k-node graph
      (both providers timed on this machine in the same run) must stay
      above ``DISCOVERY_FLOOR``;
    * ``dispatch.fee_workload``: the fallback rate must stay under a fifth
      of ``FEE_FREE_ONLY_FALLBACK_RATE``.
    """
    discovery = report.get("path_discovery")
    if discovery:
        speedup = discovery["speedup"]
        if speedup < DISCOVERY_FLOOR:
            return (
                f"path_discovery CSR speedup {speedup:.2f}x fell below "
                f"the {DISCOVERY_FLOOR}x floor (pair-at-a-time discovery "
                "measured 16.6x)"
            )
    dispatch = report.get("dispatch")
    if dispatch and not dispatch.get("carried_forward"):
        rate = dispatch["fee_workload"]["fallback_rate"]
        envelope = FEE_FREE_ONLY_FALLBACK_RATE
        if rate is None or rate > envelope / 5.0:
            return (
                f"fee-bearing dispatch fallback rate {rate!r} exceeds 1/5 of "
                f"the fee-free-only envelope ({envelope}) — fee-aware "
                "staging is not absorbing the cohort"
            )
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_substrate.json", help="result file")
    parser.add_argument(
        "--hop-transactions",
        type=int,
        default=1_500,
        help="trace length of the hop-by-hop transport run",
    )
    parser.add_argument(
        "--path-ops-iterations",
        type=int,
        default=200,
        help="probe sweeps per repeat in the path-ops microbenchmark",
    )
    parser.add_argument(
        "--signals-iterations",
        type=int,
        default=200,
        help="control-loop iterations per repeat in the signals microbenchmark",
    )
    parser.add_argument(
        "--discovery-pairs",
        type=int,
        default=48,
        help="pair count of the path-discovery microbenchmark (0 disables it)",
    )
    parser.add_argument(
        "--scale-transactions",
        type=int,
        default=600,
        help="trace length of the 10k-node scale smoke (0 disables it)",
    )
    parser.add_argument(
        "--dispatch-transactions",
        type=int,
        default=600,
        help="trace length of the macro-tick dispatch benchmark (0 disables it)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "--assert-floor",
        action="store_true",
        help=(
            "fail (exit 1) if a same-run floor clause fails: discovery "
            "speedup or fee-bearing dispatch fallback rate (CI regression "
            "gate)"
        ),
    )
    args = parser.parse_args(argv)
    baseline = {}
    try:
        with open(args.out, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError):
        pass
    report = {
        "hop_by_hop": run_hop_transport(
            transactions=args.hop_transactions, repeats=args.repeats
        )
    }
    report["path_ops"] = run_path_ops_microbench(
        iterations=args.path_ops_iterations, repeats=args.repeats
    )
    report["signals"] = run_signals_microbench(
        iterations=args.signals_iterations, repeats=args.repeats
    )
    if args.discovery_pairs > 0:
        report["path_discovery"] = run_path_discovery_microbench(
            num_pairs=args.discovery_pairs, repeats=args.repeats
        )
    elif "path_discovery" in baseline:
        report["path_discovery"] = dict(
            baseline["path_discovery"], carried_forward=True
        )
    if args.dispatch_transactions > 0:
        report["dispatch"] = run_dispatch_microbench(
            transactions=args.dispatch_transactions
        )
    elif "dispatch" in baseline:
        report["dispatch"] = dict(baseline["dispatch"], carried_forward=True)
    if args.scale_transactions > 0:
        report["scale"] = run_scale_smoke(transactions=args.scale_transactions)
    elif "scale" in baseline:
        # Keep the recorded entry rather than dropping it, but tag it so
        # nobody mistakes another machine's numbers for this run's.
        report["scale"] = dict(baseline["scale"], carried_forward=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    hop = report["hop_by_hop"]
    print(f"hop_by_hop {hop['events_per_sec']:>9,} ev/s")
    ops = report["path_ops"]
    print(
        f"path_ops bottleneck {ops['bottleneck_batch']['probes_per_sec']:>9,} "
        f"probes/s (cached {ops['bottleneck_batch']['cached_probes_per_sec']:,}/s)"
        f"   lock+settle {ops['lock_settle']['round_trips_per_sec']:>7,} trips/s"
    )
    sig = report["signals"]
    print(
        f"signals  prices {sig['price_update']['updates_per_sec']:>11,} updates/s"
        f"   marks {sig['mark_scan']['scans_per_sec']:>11,} scans/s"
    )
    if "path_discovery" in report:
        disc = report["path_discovery"]
        print(
            f"discovery {disc['network']['nodes']:,} nodes: scalar "
            f"{disc['scalar_pairs_per_sec']:>7,} -> csr "
            f"{disc['csr_pairs_per_sec']:>7,} pairs/s "
            f"({disc['speedup']:.2f}x), cached "
            f"{disc['cached_pairs_per_sec']:,}/s, disk-warm "
            f"{disc['disk_warm_pairs_per_sec']:,}/s"
        )
    if "dispatch" in report:
        disp = report["dispatch"]
        print(
            f"dispatch {disp['events_per_sec']:>9,} ev/s; cohorts "
            + ", ".join(
                f"{size}: {cell['txns_per_sec']:,} txn/s"
                for size, cell in disp["cohort_sweep"].items()
            )
        )
        fee = disp["fee_workload"]
        rate = fee["fallback_rate"]
        print(
            f"dispatch fee-bearing {fee['txns_per_sec']:,} txn/s, fallbacks "
            f"{fee['scalar_fallbacks']}/{fee['cohort_payments']} "
            f"(rate {rate if rate is not None else 'n/a'})"
        )
    if "scale" in report:
        scale = report["scale"]
        print(
            f"scale    {scale['network']['nodes']:,} nodes / "
            f"{scale['network']['channels']:,} channels: "
            f"{scale['transactions_per_sec']} txn/s, "
            f"{scale['events_per_sec']} ev/s, sweep "
            f"{scale['sweep']['cells']} cells in "
            f"{scale['sweep']['wall_seconds']}s"
        )
    print(f"wrote {args.out}")
    if args.assert_floor:
        error = check_floor(report)
        if error:
            print(f"FLOOR CHECK FAILED: {error}")
            return 1
        print("floor check passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
