"""The windowed transport in action: AIMD windows tracking a bottleneck.

Usage::

    python examples/window_protocol.py

§4.1 defers Spider's congestion-control design; the NSDI version settles
on per-path windows driven by router marks.  This example builds the
classic congestion-control demo topology — a wide access link feeding a
narrow core — and shows the closed loop working: units park at the
router, overstay the marking threshold, the marks come back on acks, and
the sender's window walks down until the path runs at the bottleneck
rate, then probes back up.
"""

from __future__ import annotations

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.core.window_control import WindowedSpiderScheme
from repro.network.network import PaymentNetwork
from repro.workload.generator import TransactionRecord


def main() -> None:
    # 0 --(wide)--> 1 --(narrow)--> 2, plus reverse traffic 2 -> 0 that
    # replenishes the bottleneck direction so it keeps serving.
    network = PaymentNetwork()
    network.add_channel(0, 1, 5_000.0)
    network.add_channel(1, 2, 300.0)

    forward = [
        TransactionRecord(i, 0.5 * i, 0, 2, 120.0) for i in range(40)
    ]
    reverse = [
        TransactionRecord(100 + i, 1.0 + 0.5 * i, 2, 0, 100.0) for i in range(38)
    ]
    records = sorted(forward + reverse, key=lambda r: r.arrival_time)

    scheme = WindowedSpiderScheme(
        initial_window=400.0,
        alpha=20.0,
        beta=0.5,
        mark_threshold=0.2,
        queue_timeout=10.0,
    )
    runtime = SimulationSession(
        network, records, scheme, RuntimeConfig(end_time=40.0, mtu=25.0)
    )

    # Sample the forward path's window once a second.
    forward_path = network.path_table.compile((0, 1, 2))
    samples = []

    def sample():
        samples.append((runtime.now, scheme.window(forward_path).window))

    runtime.sim.every(1.0, sample)
    metrics = runtime.run()

    print("time   window on path 0-1-2")
    for t, w in samples:
        bar = "#" * max(1, int(w / 10))
        print(f"{t:5.1f}  {w:7.1f}  {bar}")
    print()
    print(
        f"acks: {scheme.clean_acks} clean, {scheme.marked_acks} marked, "
        f"{scheme.losses} lost; router marked {runtime.transport.units_marked} units"
    )
    print(
        f"success ratio {100 * metrics.success_ratio:.1f}%, "
        f"volume {100 * metrics.success_volume:.1f}%"
    )
    print()
    print(
        "The window collapses multiplicatively whenever queue delay at\n"
        "router 1 exceeds the marking threshold, and creeps back up on\n"
        "clean acks — the AIMD sawtooth, now in money."
    )


if __name__ == "__main__":
    main()
