"""Extending the library: write and register your own routing scheme.

Usage::

    python examples/custom_scheme.py

Implements a "random-path" scheme in ~20 lines — pick one of the k
edge-disjoint paths uniformly at random per attempt — registers it next to
the built-in schemes, and benchmarks it against waterfilling on the same
trace.  Use this as the template for experimenting with new routing
policies.
"""

from __future__ import annotations

import numpy as np

from repro import ExperimentConfig, compare_schemes, format_metrics_table
from repro.routing import RoutingScheme, register_scheme


class RandomPathScheme(RoutingScheme):
    """Send each attempt's units on one randomly chosen path."""

    name = "random-path"
    atomic = False
    num_paths = 4  # the session builds each pair's k-path handle

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def attempt(self, payment, runtime):
        # The pair's compiled paths (None if the pair is disconnected).
        handle = runtime.path_handle(payment.source, payment.dest, self.num_paths)
        if handle is None:
            runtime.fail_payment(payment)
            return
        cpaths = handle.cpaths
        runtime.send_on_path(payment, cpaths[int(self._rng.integers(len(cpaths)))])


def main() -> None:
    register_scheme("random-path", RandomPathScheme, overwrite=True)
    base = ExperimentConfig(
        topology="isp",
        capacity=2_000.0,
        num_transactions=1_500,
        arrival_rate=100.0,
        seed=5,
    )
    results = compare_schemes(
        base, ["random-path", "spider-waterfilling", "shortest-path"]
    )
    print(
        format_metrics_table(
            results, title="custom scheme vs built-ins (identical trace)"
        )
    )
    print("\nwaterfilling beats blind path choice because it probes imbalance (§5.3.1)")


if __name__ == "__main__":
    main()
