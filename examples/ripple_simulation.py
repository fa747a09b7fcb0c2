"""The Fig. 6 Ripple contrast: why Spider (LP)'s success volume collapses.

Usage::

    python examples/ripple_simulation.py

§6.2 reports that Spider (LP) attains a success volume that "corresponds
precisely to the circulation component of the payment graph" (52% on ISP,
22% on Ripple), while Spider (Waterfilling) sustains far higher volume.
This example reproduces the mechanism on a Ripple-like scale-free graph:

1. estimate the long-run demand matrix of the trace — what Spider-LP is
   solved against;
2. decompose it into circulation + DAG (§5.2.2) and compare ν(C*)/total
   against Spider-LP's measured success volume;
3. count the payments Spider-LP never even attempts (pairs assigned zero
   LP flow — the failure mode §6.2 calls out);
4. run Spider (Waterfilling) on the same trace for the Fig. 6 comparison;
5. as a control, re-run with the trace's sender-popularity pattern rotating
   over time (same long-run demands).  In this simulator the rotation
   barely moves either scheme — the collapse is *structural* (demand
   imbalance), not temporal; see EXPERIMENTS.md for discussion.
"""

from __future__ import annotations

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.fluid import PaymentGraph, decompose_payment_graph
from repro.metrics import format_metrics_table
from repro.routing import make_scheme
from repro.topology import ripple_topology
from repro.workload import (
    WorkloadConfig,
    estimate_demand_matrix,
    generate_workload,
    ripple_full_sizes,
)
from repro.workload.nonstationary import phase_interleave

CAPACITY = 4_000.0


def make_patterns():
    nodes = list(ripple_topology("tiny", seed=0).nodes)
    make = lambda seed: generate_workload(
        nodes,
        WorkloadConfig(
            num_transactions=1_200,
            arrival_rate=60.0,
            size_distribution=ripple_full_sizes(),
            seed=seed,
        ),
    )
    return make(101), make(202)


def run(records, scheme_name):
    end_time = max(r.arrival_time for r in records) + 10.0
    network = ripple_topology("tiny", seed=0).build_network(default_capacity=CAPACITY)
    runtime = SimulationSession(
        network,
        list(records),
        make_scheme(scheme_name),
        RuntimeConfig(end_time=end_time),
    )
    return runtime.run(), runtime


def main() -> None:
    pattern_a, pattern_b = make_patterns()
    records = phase_interleave(pattern_a, pattern_b, phase_length=5.0, rotate=False)

    print("=== demand structure (what the LP sees) ===")
    demands = estimate_demand_matrix(records)
    decomposition = decompose_payment_graph(PaymentGraph(demands), method="lp")
    print(f"demand pairs: {len(demands)}, total rate {sum(demands.values()):,.0f} XRP/s")
    print(
        f"circulation share nu(C*)/total: "
        f"{100 * decomposition.circulation_fraction:.1f}%  "
        f"(the §5.2.2 ceiling for balanced routing)"
    )

    print("\n=== Fig. 6 (Ripple column), in miniature ===")
    lp_metrics, lp_runtime = run(records, "spider-lp")
    wf_metrics, _ = run(records, "spider-waterfilling")
    print(format_metrics_table([lp_metrics, wf_metrics]))
    never_attempted = sum(
        1 for p in lp_runtime.payments.values() if p.units_sent == 0
    )
    print(
        f"\nspider-lp success volume {100 * lp_metrics.success_volume:.1f}% vs "
        f"circulation share {100 * decomposition.circulation_fraction:.1f}% "
        f"(the §6.2 identity, within noise)"
    )
    print(
        f"spider-lp never attempted {never_attempted}/{lp_metrics.attempted} payments "
        f"(zero-LP-flow pairs, the failure mode §6.2 calls out)"
    )

    print("\n=== control: rotating the demand pattern in time ===")
    rotating = phase_interleave(pattern_a, pattern_b, phase_length=5.0, rotate=True)
    lp_rotating, _ = run(rotating, "spider-lp")
    wf_rotating, _ = run(rotating, "spider-waterfilling")
    print(
        f"spider-lp volume:            stationary {100 * lp_metrics.success_volume:.1f}% "
        f"-> rotating {100 * lp_rotating.success_volume:.1f}%"
    )
    print(
        f"spider-waterfilling volume:  stationary {100 * wf_metrics.success_volume:.1f}% "
        f"-> rotating {100 * wf_rotating.success_volume:.1f}%"
    )
    print(
        "at paper-like pair sparsity the rotation alone barely matters: the\n"
        "volume collapse is driven by the demand's circulation structure"
    )


if __name__ == "__main__":
    main()
