"""Robustness under churn: success vs node-outage rate.

§7 leaves "the robustness of the routing protocol" to future work; this
bench measures it.  A seeded Poisson process takes routers offline for
fixed intervals while the Fig. 6-style ISP workload runs.  Expected
shape: everyone degrades with churn; multipath packet-switched schemes
(waterfilling) degrade gracefully because remaining paths absorb the
traffic and queued payments retry after outages, while the single-path
atomic baseline (LND) loses every payment whose moment of arrival hits a
broken path.

Run with::

    pytest benchmarks/bench_fault_tolerance.py --benchmark-only -s
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.metrics import format_table
from repro.network.faults import random_churn_schedule
from repro.routing import make_scheme
from repro.topology import isp_topology
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.distributions import ripple_isp_sizes

CHURN_RATES = [0.0, 0.1, 0.3]  # expected outages per second, network-wide
OUTAGE_DURATION = 3.0
SCHEMES = ["spider-waterfilling", "shortest-path", "lnd"]
DURATION = 30.0


def _run_point(scheme_name: str, churn_rate: float, topology, records):
    network = topology.build_network(default_capacity=2_000.0)
    scheme = make_scheme(scheme_name)
    runtime = SimulationSession(
        network, records, scheme, RuntimeConfig(end_time=DURATION + 10.0)
    )
    schedule = random_churn_schedule(
        list(topology.nodes),
        duration=DURATION,
        churn_rate=churn_rate,
        outage_duration=OUTAGE_DURATION,
        seed=17,
    )
    schedule.install(runtime)
    metrics = runtime.run()
    network.check_invariants()
    return metrics


def test_churn_sweep(benchmark):
    """Success degrades with churn; multipath degrades most gracefully."""
    topology = isp_topology()
    workload = WorkloadConfig(
        num_transactions=1_200,
        arrival_rate=50.0,
        size_distribution=ripple_isp_sizes(),
        seed=17,
    )
    records = generate_workload(list(topology.nodes), workload)

    def run():
        return {
            (scheme, rate): _run_point(scheme, rate, topology, records)
            for scheme in SCHEMES
            for rate in CHURN_RATES
        }

    table = run_once(benchmark, run)

    rows = []
    for scheme in SCHEMES:
        row = [scheme]
        for rate in CHURN_RATES:
            metrics = table[(scheme, rate)]
            row.append(
                f"{100 * metrics.success_ratio:.1f}/{100 * metrics.success_volume:.1f}"
            )
        rows.append(row)
    print()
    print(
        format_table(
            ["scheme"] + [f"churn={r}/s" for r in CHURN_RATES],
            rows,
            title=(
                "success ratio % / success volume % under node churn "
                f"(outages last {OUTAGE_DURATION:.0f}s)"
            ),
        )
    )

    for scheme in SCHEMES:
        clean = table[(scheme, 0.0)].success_ratio
        churned = table[(scheme, CHURN_RATES[-1])].success_ratio
        assert churned <= clean + 0.02, f"{scheme}: churn should not help"

    # Graceful degradation: waterfilling under max churn keeps a larger
    # share of its clean-network ratio than single-path atomic LND.
    def retention(scheme):
        clean = table[(scheme, 0.0)].success_ratio
        churned = table[(scheme, CHURN_RATES[-1])].success_ratio
        return churned / max(clean, 1e-9)

    assert retention("spider-waterfilling") >= retention("lnd") - 0.02, (
        f"waterfilling retention {retention('spider-waterfilling'):.2f} vs "
        f"lnd {retention('lnd'):.2f}"
    )


def test_outage_recovery_timeline(benchmark):
    """Throughput collapses during a blanket outage window and recovers
    after it — queued non-atomic payments drain the backlog."""
    topology = isp_topology()
    workload = WorkloadConfig(
        num_transactions=900,
        arrival_rate=30.0,
        size_distribution=ripple_isp_sizes(),
        seed=23,
    )
    records = generate_workload(list(topology.nodes), workload)

    def run():
        from repro.network.faults import FaultSchedule, NodeOutage

        network = topology.build_network(default_capacity=3_000.0)
        # Take out a third of the routers for t in [10, 14).
        victims = sorted(topology.nodes)[::3]
        schedule = FaultSchedule(
            [NodeOutage(10.0, 14.0, node) for node in victims]
        )
        runtime = SimulationSession(
            network,
            records,
            make_scheme("spider-waterfilling"),
            RuntimeConfig(end_time=40.0),
        )
        schedule.install(runtime)
        return runtime.run()

    metrics = run_once(benchmark, run)
    series = dict(metrics.throughput_series)
    during = sum(series.get(t, 0.0) for t in (11.0, 12.0, 13.0)) / 3.0
    before = sum(series.get(t, 0.0) for t in (7.0, 8.0, 9.0)) / 3.0
    after = sum(series.get(t, 0.0) for t in (15.0, 16.0, 17.0)) / 3.0
    print(
        f"\nthroughput before/during/after outage: "
        f"{before:.0f} / {during:.0f} / {after:.0f} value/s"
    )
    assert during < before * 0.8, "outage should dent throughput"
    assert after > during, "throughput should recover after the outage"
    assert metrics.success_ratio > 0.5  # the backlog does drain
