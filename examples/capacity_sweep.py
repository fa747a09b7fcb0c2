"""Fig. 7 in miniature: how much capital must be escrowed for a target
success rate?

Usage::

    python examples/capacity_sweep.py

Sweeps per-channel capacity on the ISP topology for Spider (Waterfilling)
and the shortest-path baseline, and prints the capital needed to reach 90%
success volume under each scheme — the paper's argument that Spider needs
less locked-up capital for the same service level.
"""

from __future__ import annotations

from repro import ExperimentConfig, SweepExecutor
from repro.metrics import format_table


def main() -> None:
    base = ExperimentConfig(
        topology="isp",
        num_transactions=1_500,
        arrival_rate=100.0,
        sizes="isp",
        seed=3,
    )
    capacities = [500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0]
    schemes = ["spider-waterfilling", "shortest-path", "silentwhispers"]
    results = SweepExecutor(base, processes=1).parameter_sweep(
        "capacity", capacities, schemes
    )

    rows = []
    for capacity in capacities:
        row = [f"{capacity:g}"]
        for scheme in schemes:
            metrics = results[(scheme, capacity)]
            row.append(f"{100 * metrics.success_volume:.1f}")
        rows.append(row)
    print(
        format_table(
            ["capacity"] + [f"{s} vol%" for s in schemes],
            rows,
            title="success volume vs per-channel capacity (ISP topology)",
        )
    )

    print("\ncapital efficiency: smallest capacity reaching 90% success volume")
    for scheme in schemes:
        needed = next(
            (c for c in capacities if results[(scheme, c)].success_volume >= 0.9),
            None,
        )
        label = f"{needed:g}" if needed is not None else f"> {capacities[-1]:g}"
        print(f"  {scheme:22s} {label}")


if __name__ == "__main__":
    main()
