"""Cross-module integration tests.

These exercise the full stack — topology → workload → scheme → runtime →
metrics — and check the system-level invariants the paper's results rely
on.
"""

from __future__ import annotations

import pytest

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import compare_schemes, run_experiment
from repro.network.network import PaymentNetwork
from repro.routing.registry import available_schemes, make_scheme
from repro.topology.generators import cycle_topology
from repro.topology.isp import isp_topology
from repro.workload.demand import circulation_demand, records_from_demand
from repro.workload.generator import TransactionRecord


def small_config(**overrides):
    defaults = dict(
        topology="isp",
        capacity=2000.0,
        num_transactions=200,
        arrival_rate=60.0,
        seed=11,
        check_invariants=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConservationAcrossSchemes:
    """No scheme may create or destroy funds."""

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_total_funds_conserved(self, scheme):
        config = small_config(scheme=scheme, num_transactions=120)
        topology = config.build_topology()
        network = topology.build_network(default_capacity=config.capacity)
        total_before = network.total_funds()
        records = config.build_workload(list(topology.nodes))
        scheme_obj = make_scheme(scheme)
        runtime = SimulationSession(
            network, records, scheme_obj, config.build_runtime_config()
        )
        runtime.run()
        network.check_invariants()
        # spider-lp with rebalancing disabled never deposits; all schemes
        # here leave capacity untouched.
        assert network.total_funds() == pytest.approx(total_before)

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_delivered_value_never_exceeds_attempted(self, scheme):
        metrics = run_experiment(small_config(scheme=scheme, num_transactions=120))
        assert metrics.delivered_value <= metrics.attempted_value + 1e-6
        assert metrics.completed_value <= metrics.delivered_value + 1e-6


class TestEverySchemeEndsResolved:
    """Every registered scheme accounts for every payment: each one ends
    completed or failed, the router queues are drained, and a payment
    that cannot be routed leaves nothing locked."""

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_every_payment_completes_or_fails(self, scheme):
        config = small_config(scheme=scheme, num_transactions=120)
        session = SimulationSession.from_config(config)
        metrics = session.run()
        assert metrics.attempted == 120
        assert metrics.completed + metrics.failed == metrics.attempted
        assert session.network.state_store.total_queued() == 0

    @staticmethod
    def _two_islands():
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_channel(2, 3, 100.0)
        return network

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_empty_trace(self, scheme):
        network = self._two_islands()
        session = SimulationSession(
            network, [], make_scheme(scheme), RuntimeConfig(end_time=5.0)
        )
        metrics = session.run()
        assert (metrics.attempted, metrics.completed, metrics.failed) == (0, 0, 0)
        assert network.total_funds() == 200.0

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_disconnected_pair_fails_cleanly(self, scheme):
        network = self._two_islands()
        records = [TransactionRecord(0, 0.5, 0, 3, 10.0)]
        session = SimulationSession(
            network, records, make_scheme(scheme), RuntimeConfig(end_time=5.0)
        )
        metrics = session.run()
        assert (metrics.attempted, metrics.completed, metrics.failed) == (1, 0, 1)
        network.check_invariants()
        assert not network.state_store.inflight_view.any()
        assert network.total_funds() == 200.0

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_malformed_trace_is_rejected_at_the_door(self, scheme):
        """A payment to its own source, two records sharing one id, or an
        arrival time of NaN (no place in the arrival order) raise a
        ``ConfigError`` naming the id before anything runs — not
        a scheme-specific exception mid-run, nor a silently lost
        payment."""
        line = [TransactionRecord(0, 0.5, 0, 1, 10.0)]
        self_payment = line + [TransactionRecord(7, 0.6, 1, 1, 10.0)]
        repeated_id = line + [TransactionRecord(0, 0.7, 1, 0, 10.0)]
        unordered = line + [TransactionRecord(5, float("nan"), 1, 0, 10.0)]
        for records, reason in [
            (self_payment, "transaction 7 pays its own source"),
            (repeated_id, "transaction id 0 appears more than once"),
            (unordered, "transaction 5 arrives at time nan"),
        ]:
            with pytest.raises(ConfigError, match=reason):
                SimulationSession(
                    self._two_islands(), records, make_scheme(scheme),
                    RuntimeConfig(end_time=5.0),
                )


class TestCirculationIsFullyRoutable:
    """Proposition 1, dynamically: a circulation demand on an ample-capacity
    network should be (nearly) fully routable by the multipath schemes,
    while one-way demand is not."""

    def _run(self, scheme_name, demands, capacity=50_000.0):
        topology = cycle_topology(6)
        network = topology.build_network(default_capacity=capacity)
        records = records_from_demand(demands, duration=30.0, mean_size=10.0, seed=2)
        runtime = SimulationSession(
            network,
            records,
            make_scheme(scheme_name),
            RuntimeConfig(end_time=60.0, check_invariants=True),
        )
        return runtime.run()

    def test_circulation_demand_flows(self):
        demands = circulation_demand(range(6), 60.0, num_cycles=3, seed=1)
        metrics = self._run("spider-waterfilling", demands)
        assert metrics.success_volume > 0.95

    def test_one_way_demand_eventually_starves(self):
        # All value moves 0 -> 3; with capacity 60 per channel (30 per
        # direction) only the escrowed funds can ever cross.
        metrics = self._run("spider-waterfilling", {(0, 3): 50.0}, capacity=60.0)
        assert metrics.success_volume < 0.2


class TestSchemeOrdering:
    """The qualitative Fig. 6 ordering on a moderately loaded ISP network."""

    @pytest.fixture(scope="class")
    def results(self):
        config = ExperimentConfig(
            topology="isp",
            capacity=2000.0,
            num_transactions=1200,
            arrival_rate=100.0,
            seed=7,
        )
        schemes = [
            "spider-waterfilling",
            "max-flow",
            "shortest-path",
            "silentwhispers",
            "speedymurmurs",
        ]
        return {m.scheme: m for m in compare_schemes(config, schemes)}

    def test_waterfilling_close_to_max_flow(self, results):
        # §6.2: "Spider (Waterfilling) ... within 5% of Max-flow".
        waterfilling = results["spider-waterfilling"].success_ratio
        max_flow = results["max-flow"].success_ratio
        assert waterfilling >= max_flow - 0.05

    def test_packet_switching_beats_atomic_baselines(self, results):
        # §6.2: non-atomic shortest-path already beats SpeedyMurmurs and
        # SilentWhispers.
        shortest = results["shortest-path"].success_ratio
        assert shortest > results["silentwhispers"].success_ratio
        assert shortest >= results["speedymurmurs"].success_ratio - 0.02

    def test_waterfilling_beats_shortest_path_on_volume(self, results):
        assert (
            results["spider-waterfilling"].success_volume
            >= results["shortest-path"].success_volume
        )


class TestDeterminismAcrossRuns:
    def test_full_pipeline_is_reproducible(self):
        config = small_config(scheme="spider-primal-dual", num_transactions=150)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.completed == b.completed
        assert a.delivered_value == pytest.approx(b.delivered_value)
        assert a.units_settled == b.units_settled
