"""Tests for the windowed transport (per-path AIMD + router marking)."""

from __future__ import annotations

import pytest

from repro.core.payments import Payment
from repro.core.queueing import HopUnit
from repro.core.window_control import PathWindow, WindowedSpiderScheme
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.experiments import ExperimentConfig, run_experiment
from repro.topology.generators import cycle_topology, line_topology
from repro.workload.generator import TransactionRecord


def run(records, network, scheme=None, end_time=30.0):
    runtime = SimulationSession(
        network,
        records,
        scheme or WindowedSpiderScheme(),
        RuntimeConfig(end_time=end_time, check_invariants=True),
    )
    return runtime.run(), runtime


def make_unit(path=(0, 1, 2), amount=10.0, marked=False):
    payment = Payment(payment_id=1, source=path[0], dest=path[-1],
                      amount=amount, arrival_time=0.0)
    payment.register_inflight(amount)
    unit = HopUnit(payment, amount, tuple(path), now=0.0)
    unit.marked = marked
    return unit


class TestAimdRules:
    def make_scheme(self, **kwargs):
        defaults = dict(initial_window=100.0, alpha=10.0, beta=0.5, rtt=0.5)
        defaults.update(kwargs)
        return WindowedSpiderScheme(**defaults)

    def test_clean_ack_grows_window_additively(self):
        scheme = self.make_scheme()
        unit = make_unit(amount=10.0)
        state = scheme.window(unit.path)
        state.inflight = 10.0
        scheme.on_unit_resolved(unit, "settled", now=1.0)
        # +alpha * amount / window = 10 * 10 / 100 = 1.
        assert state.window == pytest.approx(101.0)
        assert state.inflight == 0.0
        assert scheme.clean_acks == 1

    def test_marked_ack_halves_window(self):
        scheme = self.make_scheme()
        unit = make_unit(marked=True)
        state = scheme.window(unit.path)
        state.inflight = 10.0
        scheme.on_unit_resolved(unit, "settled", now=1.0)
        assert state.window == pytest.approx(50.0)
        assert scheme.marked_acks == 1

    def test_loss_decreases_like_a_mark(self):
        scheme = self.make_scheme()
        unit = make_unit()
        scheme.window(unit.path).inflight = 10.0
        scheme.on_unit_resolved(unit, "lost", now=1.0)
        assert scheme.window(unit.path).window == pytest.approx(50.0)
        assert scheme.losses == 1

    def test_at_most_one_decrease_per_rtt(self):
        scheme = self.make_scheme(rtt=1.0)
        path = (0, 1, 2)
        state = scheme.window(path)
        state.inflight = 20.0
        scheme.on_unit_resolved(make_unit(marked=True), "settled", now=1.0)
        scheme.on_unit_resolved(make_unit(marked=True), "settled", now=1.4)
        # Second mark is inside the guard interval: no second decrease.
        assert state.window == pytest.approx(50.0)
        scheme.on_unit_resolved(make_unit(marked=True), "settled", now=2.1)
        assert state.window == pytest.approx(25.0)

    def test_window_never_below_min(self):
        scheme = self.make_scheme(min_window=30.0, rtt=0.1)
        state = scheme.window((0, 1, 2))
        for i in range(10):
            state.inflight = 10.0
            scheme.on_unit_resolved(make_unit(marked=True), "settled", now=float(i))
        assert state.window == pytest.approx(30.0)

    def test_window_never_above_max(self):
        scheme = self.make_scheme(max_window=101.5)
        state = scheme.window((0, 1, 2))
        for i in range(10):
            state.inflight = 10.0
            scheme.on_unit_resolved(make_unit(amount=50.0), "settled", now=float(i))
        assert state.window <= 101.5

    def test_deadline_cancel_is_congestion_neutral(self):
        scheme = self.make_scheme()
        state = scheme.window((0, 1, 2))
        state.inflight = 10.0
        scheme.on_unit_resolved(make_unit(marked=False), "cancelled", now=1.0)
        assert state.window == pytest.approx(100.0)  # unchanged

    def test_headroom(self):
        state = PathWindow(window=100.0, inflight=30.0)
        assert state.headroom == pytest.approx(70.0)
        state.inflight = 150.0
        assert state.headroom == 0.0


class TestTransportIntegration:
    def test_delivers_on_a_line(self):
        network = line_topology(3).build_network(default_capacity=200.0)
        metrics, _ = run([TransactionRecord(0, 1.0, 0, 2, 20.0)], network)
        assert metrics.completed == 1
        assert metrics.delivered_value == pytest.approx(20.0)

    def test_window_limits_inflight_value(self):
        # Window 15 < payment 60: at most 15 can be in flight at once, so
        # the payment needs several RTTs' worth of polls to finish.
        network = line_topology(3).build_network(default_capacity=1000.0)
        scheme = WindowedSpiderScheme(initial_window=15.0, max_window=15.0)
        metrics, runtime = run(
            [TransactionRecord(0, 1.0, 0, 2, 60.0)], network, scheme=scheme
        )
        assert metrics.completed == 1
        # 60 value over a 15-value window needs >= 4 units.
        assert runtime.payments[0].units_sent >= 4

    def test_marks_shrink_windows_under_congestion(self):
        # A wide access channel feeding a narrow core: units launch freely
        # and park at router 1.  Reverse traffic later replenishes the
        # bottleneck, so the parked units are serviced *after* overstaying
        # the threshold — they come back marked and the window shrinks.
        from repro.network.network import PaymentNetwork

        network = PaymentNetwork()
        network.add_channel(0, 1, 1000.0)
        network.add_channel(1, 2, 60.0)
        scheme = WindowedSpiderScheme(
            initial_window=500.0, mark_threshold=0.1, queue_timeout=30.0
        )
        records = [
            TransactionRecord(i, 1.0 + 0.05 * i, 0, 2, 40.0) for i in range(4)
        ] + [
            TransactionRecord(10 + i, 4.0 + 0.5 * i, 2, 0, 15.0) for i in range(4)
        ]
        runtime = SimulationSession(
            network,
            records,
            scheme,
            RuntimeConfig(end_time=60.0, check_invariants=True, mtu=10.0),
        )
        runtime.run()
        assert runtime.transport.units_marked > 0
        assert scheme.marked_acks > 0
        window = scheme.window_snapshot()[(0, 1, 2)]
        assert window < 500.0  # congestion shrank it

    def test_uses_multiple_paths(self):
        network = cycle_topology(6).build_network(default_capacity=100.0)
        scheme = WindowedSpiderScheme(num_paths=2)
        metrics, runtime = run(
            [TransactionRecord(0, 1.0, 0, 3, 80.0)], network, scheme=scheme
        )
        assert metrics.delivered_value == pytest.approx(80.0)
        assert runtime.network.channel(0, 1).attempted_flow(0) > 0
        assert runtime.network.channel(0, 5).attempted_flow(0) > 0

    def test_requires_queueing_runtime(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        runtime = SimulationSession(network, [], WindowedSpiderScheme())  # no transport attached
        payment = Payment(payment_id=1, source=0, dest=2, amount=1.0, arrival_time=0.0)
        with pytest.raises(TypeError):
            WindowedSpiderScheme().attempt(payment, runtime)

    def test_no_path_fails_payment(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        network.add_node(99)
        metrics, _ = run([TransactionRecord(0, 1.0, 0, 99, 10.0)], network)
        assert metrics.failed == 1

    def test_runs_via_experiment_runner(self):
        config = ExperimentConfig(
            scheme="spider-window",
            scheme_params={"initial_window": 200.0},
            topology="line-4",
            capacity=5_000.0,
            num_transactions=40,
            arrival_rate=20.0,
            seed=5,
        )
        metrics = run_experiment(config)
        assert metrics.attempted == 40
        assert metrics.completed > 0

    def test_funds_conserved_under_windowed_transport(self):
        network = cycle_topology(5).build_network(default_capacity=80.0)
        total_before = network.total_funds()
        records = [
            TransactionRecord(i, 1.0 + 0.1 * i, i % 5, (i + 2) % 5, 25.0)
            for i in range(12)
        ]
        _, runtime = run(records, network, end_time=40.0)
        runtime.network.check_invariants()
        assert runtime.network.total_funds() == pytest.approx(total_before)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_paths": 0},
            {"initial_window": 0.0},
            {"alpha": 0.0},
            {"beta": 0.0},
            {"beta": 1.0},
            {"min_window": 0.0},
            {"min_window": 10.0, "max_window": 5.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            WindowedSpiderScheme(**kwargs)

    def test_registered(self):
        from repro.routing.registry import make_scheme

        scheme = make_scheme("spider-window", alpha=5.0)
        assert isinstance(scheme, WindowedSpiderScheme)
        assert scheme.alpha == 5.0

    def test_runtime_kwargs(self):
        scheme = WindowedSpiderScheme(
            mark_threshold=0.2, hop_delay=0.01, queue_timeout=3.0
        )
        assert scheme.runtime_kwargs() == {
            "mark_threshold": 0.2,
            "hop_delay": 0.01,
            "queue_timeout": 3.0,
        }

    def test_queueing_runtime_rejects_negative_mark_threshold(self):
        network = line_topology(3).build_network(default_capacity=100.0)
        session = SimulationSession(
            network,
            [],
            WindowedSpiderScheme(mark_threshold=-0.1),
            RuntimeConfig(end_time=1.0),
        )
        with pytest.raises(ValueError):
            session.prepare()
