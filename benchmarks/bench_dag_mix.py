"""Throughput vs. circulation share of the demand (NSDI-version sweep).

Proposition 1 says balanced routing can deliver exactly the circulation
component ν(C*) of the demand.  The NSDI version of the paper turns this
into an experiment: generate demand that is x% circulation / (100−x)% DAG
and sweep x — every scheme's sustainable success volume should track the
circulation share, with the escrow buffering the DAG remainder for a
while.  This bench reproduces that sweep on the ISP topology for Spider
(waterfilling), the windowed Spider transport, and the LND baseline.

Run with::

    pytest benchmarks/bench_dag_mix.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.fluid import PaymentGraph, decompose_payment_graph
from repro.metrics import format_table
from repro.routing import make_scheme
from repro.topology import isp_topology
from repro.workload import mixed_demand, records_from_demand

FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0]
SCHEMES = ["spider-waterfilling", "spider-window", "lnd"]

#: Keep channels tight relative to the offered load so the sweep measures
#: the *sustainable* rate, not the escrow transient (at 600/120 the escrow
#: absorbs the whole DAG demand and the sweep flattens).
CAPACITY = 300.0
DURATION = 60.0
TOTAL_RATE = 200.0


def _run_point(scheme_name: str, fraction: float, topology, seed: int = 7):
    demands = mixed_demand(
        list(topology.nodes), TOTAL_RATE, circulation_fraction=fraction, seed=seed
    )
    records = records_from_demand(demands, duration=DURATION, mean_size=15.0, seed=seed)
    network = topology.build_network(default_capacity=CAPACITY)
    scheme = make_scheme(scheme_name)
    runtime = SimulationSession(
        network, records, scheme, RuntimeConfig(end_time=DURATION + 15.0)
    )
    metrics = runtime.run()
    nu = decompose_payment_graph(PaymentGraph(demands), method="lp").value
    realized_share = nu / max(sum(demands.values()), 1e-9)
    return metrics, realized_share


def test_dag_mix_sweep(benchmark):
    """Success volume rises with the circulation share for every scheme."""
    topology = isp_topology()

    def run():
        table = {}
        shares = {}
        for fraction in FRACTIONS:
            for scheme in SCHEMES:
                metrics, realized = _run_point(scheme, fraction, topology)
                table[(scheme, fraction)] = metrics
                shares[fraction] = realized
        return table, shares

    table, shares = run_once(benchmark, run)

    rows = []
    for scheme in SCHEMES:
        row = [scheme]
        for fraction in FRACTIONS:
            row.append(f"{100 * table[(scheme, fraction)].success_volume:.1f}")
        rows.append(row)
    header = ["scheme"] + [f"x={f:.2f}" for f in FRACTIONS]
    print()
    print(
        format_table(
            header,
            rows,
            title="success volume (%) vs circulation fraction of demand",
        )
    )
    print(
        "realized nu/demand per x: "
        + ", ".join(f"{f:.2f}->{shares[f]:.2f}" for f in FRACTIONS)
    )

    for scheme in SCHEMES:
        pure_dag = table[(scheme, 0.0)].success_volume
        pure_circ = table[(scheme, 1.0)].success_volume
        # The paper's reading of Prop. 1: circulation demand is sustainable,
        # DAG demand is escrow-bounded.  Expect a decisive gap.
        assert pure_circ > pure_dag + 0.15, (
            f"{scheme}: pure circulation {pure_circ:.2f} should clearly beat "
            f"pure DAG {pure_dag:.2f}"
        )
        # And the sweep should be broadly monotone in the circulation share.
        volumes = [table[(scheme, f)].success_volume for f in FRACTIONS]
        for lo, hi in zip(volumes, volumes[1:]):
            assert hi >= lo - 0.08, f"{scheme}: non-monotone sweep {volumes}"

    # Note: on this *sparse-pair* synthetic demand (a handful of heavy
    # flows), single-path LND can edge out multipath waterfilling —
    # spreading over k=4 paths burns more capacity per delivered unit when
    # capacity is this tight.  The many-pair Fig. 6 regime (see
    # bench_new_baselines.py) is where Spider's multipath wins; we assert
    # scheme ordering there, not here.


def test_circulation_share_is_monotone_in_fraction(benchmark):
    """The workload generator's realized nu(C*)/demand tracks the requested
    circulation fraction (weakly monotone; DAG edges may close cycles)."""

    def run():
        shares = []
        for fraction in FRACTIONS:
            demands = mixed_demand(
                range(24), 100.0, circulation_fraction=fraction, seed=11
            )
            nu = decompose_payment_graph(PaymentGraph(demands), method="lp").value
            shares.append(nu / sum(demands.values()))
        return shares

    shares = run_once(benchmark, run)
    print("\nrealized circulation shares:", [f"{s:.3f}" for s in shares])
    assert shares[0] <= shares[-1]
    assert shares[-1] == pytest.approx(1.0, abs=1e-6)
    for lo, hi in zip(shares, shares[1:]):
        assert hi >= lo - 0.1  # weakly increasing up to sampling noise
