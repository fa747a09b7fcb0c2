"""Deployed-system baselines: Spider vs LND vs Celer vs windowed Spider.

The provided text evaluates against SpeedyMurmurs/SilentWhispers/max-flow
(Fig. 6); the NSDI version of the paper adds the two systems people
actually run or propose to run — the Lightning daemon's source routing
(single cheapest path, atomic, retries with pruning) and Celer's
backpressure routing — plus Spider's final windowed transport.  This
bench reproduces that comparison on the ISP topology: the expected shape
is Spider (waterfilling or windowed) on top, LND materially below (atomic
single-path wastes multipath capacity), and backpressure in between with
far higher in-network effort per delivered unit.

Run with::

    pytest benchmarks/bench_new_baselines.py --benchmark-only -s
"""

from __future__ import annotations

from benchmarks.conftest import DEFAULT_CAPACITY, run_once
from repro.experiments import ExperimentConfig, compare_schemes
from repro.metrics import format_metrics_table

SCHEMES = ["spider-waterfilling", "spider-window", "celer", "lnd", "shortest-path"]


def base_config(**overrides):
    defaults = dict(
        topology="isp",
        capacity=DEFAULT_CAPACITY / 2,  # tighter than Fig. 6 so gaps show
        num_transactions=1_500,
        arrival_rate=100.0,
        sizes="isp",
        seed=42,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_deployed_baseline_comparison(benchmark):
    """The NSDI-version headline: Spider beats the deployed baseline."""

    def run():
        return compare_schemes(base_config(), SCHEMES)

    results = run_once(benchmark, run)
    print()
    print(format_metrics_table(results, title="ISP topology, deployed baselines"))

    by_name = {m.scheme: m for m in results}
    spider = by_name["spider-waterfilling"]
    windowed = by_name["spider-window"]
    lnd = by_name["lnd"]
    celer = by_name["celer"]

    # Headline: packet-switched multipath Spider clearly outperforms the
    # deployed atomic single-path design on both metrics.
    assert spider.success_ratio > lnd.success_ratio
    assert spider.success_volume > lnd.success_volume

    # The windowed transport is Spider-class, not baseline-class: it must
    # land well above LND too (it trades a little volume for stability).
    assert windowed.success_volume > lnd.success_volume

    # Backpressure delivers meaningful volume but pays in effort; it
    # should not collapse (sanity floor) nor beat Spider here.
    assert celer.success_volume > 0.15
    assert spider.success_volume >= celer.success_volume - 0.05


def test_lnd_retry_budget_matters(benchmark):
    """The pruning loop does real work at light load; at heavy load extra
    retries *hurt* globally.

    Light load: a failed shortest path usually has a funded alternative,
    so attempts=3 beats attempts=1.  Heavy load: retried payments succeed
    over longer paths that lock more capacity per delivered unit, and the
    network-wide success ratio *drops* — the congestion externality of
    aggressive retrying that deployed Lightning networks exhibit, and one
    of the motivations for Spider's congestion control (§4.1).  Both
    regimes are printed; both directions are asserted.
    """
    from repro.experiments import run_experiment

    def run():
        light = [
            run_experiment(
                base_config(
                    scheme="lnd", scheme_params={"max_attempts": attempts},
                    capacity=1_000.0, num_transactions=500, arrival_rate=30.0,
                )
            )
            for attempts in (1, 3)
        ]
        heavy = [
            run_experiment(
                base_config(scheme="lnd", scheme_params={"max_attempts": attempts})
            )
            for attempts in (1, 6)
        ]
        return light, heavy

    light, heavy = run_once(benchmark, run)
    print()
    for label, attempts_list, rows in (
        ("light", (1, 3), light),
        ("heavy", (1, 6), heavy),
    ):
        for attempts, metrics in zip(attempts_list, rows):
            print(
                f"  {label} load, max_attempts={attempts}: "
                f"ratio {100 * metrics.success_ratio:.1f}% "
                f"volume {100 * metrics.success_volume:.1f}%"
            )
    assert light[1].success_ratio >= light[0].success_ratio
    assert heavy[1].success_ratio <= heavy[0].success_ratio + 0.01


def test_imbalance_aware_window_ablation(benchmark):
    """§4.1's imbalance-aware congestion control, measured.

    On a ring with asymmetric two-way demand (heavy clockwise, light
    counter-clockwise), scaling the additive increase by the path's
    rebalance score is throughput-neutral but leaves channels measurably
    closer to balance at moderate gain — rate aggressiveness *as a
    rebalancing tool*, exactly the paper's suggestion.
    """
    from repro.engine.session import RuntimeConfig, SimulationSession
    from repro.routing import make_scheme
    from repro.topology import cycle_topology
    from repro.workload import records_from_demand

    n = 6
    demands = {}
    for i in range(n):
        demands[(i, (i + 1) % n)] = 60.0
        demands[((i + 1) % n, i)] = 20.0
    records = records_from_demand(demands, duration=40.0, mean_size=8.0, seed=3)

    def run_variant(scheme_name, **params):
        network = cycle_topology(n).build_network(default_capacity=60.0)
        scheme = make_scheme(scheme_name, **params)
        runtime = SimulationSession(
            network, records, scheme, RuntimeConfig(end_time=50.0, mtu=10.0)
        )
        return runtime.run()

    def run():
        return (
            run_variant("spider-window"),
            run_variant("spider-window-imbalance", imbalance_gain=1.0),
        )

    plain, aware = run_once(benchmark, run)
    print(
        f"\nplain window:      volume {100 * plain.success_volume:.1f}%  "
        f"mean imbalance {plain.mean_channel_imbalance:.1f}"
    )
    print(
        f"imbalance-aware:   volume {100 * aware.success_volume:.1f}%  "
        f"mean imbalance {aware.mean_channel_imbalance:.1f}"
    )
    # Throughput-neutral...
    assert abs(aware.success_volume - plain.success_volume) < 0.03
    # ...while keeping channels closer to balance.
    assert aware.mean_channel_imbalance < plain.mean_channel_imbalance
