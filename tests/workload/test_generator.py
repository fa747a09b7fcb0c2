"""Tests for workload generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workload.distributions import ConstantSize
from repro.workload.generator import TransactionRecord, WorkloadConfig, generate_workload


def make_config(**overrides):
    defaults = dict(num_transactions=500, arrival_rate=100.0, seed=3)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestGeneration:
    def test_trace_length(self):
        records = generate_workload(range(10), make_config())
        assert len(records) == 500

    def test_arrival_times_are_increasing(self):
        records = generate_workload(range(10), make_config())
        times = [r.arrival_time for r in records]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_arrival_rate_approximately_respected(self):
        records = generate_workload(range(10), make_config(num_transactions=5000))
        duration = records[-1].arrival_time
        assert 5000 / duration == pytest.approx(100.0, rel=0.1)

    def test_sources_differ_from_destinations(self):
        records = generate_workload(range(5), make_config())
        assert all(r.source != r.dest for r in records)

    def test_nodes_are_from_supplied_set(self):
        nodes = [3, 7, 11, 19]
        records = generate_workload(nodes, make_config())
        used = {r.source for r in records} | {r.dest for r in records}
        assert used <= set(nodes)

    def test_sender_distribution_is_skewed(self):
        # Exponential sender popularity: busiest sender should dominate.
        records = generate_workload(range(20), make_config(num_transactions=5000))
        counts = {}
        for r in records:
            counts[r.source] = counts.get(r.source, 0) + 1
        values = sorted(counts.values(), reverse=True)
        assert values[0] > 3 * np.median(values)

    def test_size_distribution_is_used(self):
        config = make_config(size_distribution=ConstantSize(42.0))
        records = generate_workload(range(5), config)
        assert all(r.amount == 42.0 for r in records)

    def test_deadline_is_relative_to_arrival(self):
        config = make_config(deadline=5.0)
        records = generate_workload(range(5), config)
        assert all(r.deadline == pytest.approx(r.arrival_time + 5.0) for r in records)

    def test_determinism(self):
        a = generate_workload(range(8), make_config())
        b = generate_workload(range(8), make_config())
        assert a == b

    def test_seed_changes_trace(self):
        a = generate_workload(range(8), make_config(seed=1))
        b = generate_workload(range(8), make_config(seed=2))
        assert a != b


class TestRotation:
    def test_rotation_changes_sender_mix_over_time(self):
        quiet = generate_workload(
            range(30), make_config(num_transactions=6000, rotation_interval=None)
        )
        rotating = generate_workload(
            range(30),
            make_config(num_transactions=6000, rotation_interval=5.0),
        )

        def top_sender(records):
            counts = {}
            for r in records:
                counts[r.source] = counts.get(r.source, 0) + 1
            return max(counts, key=counts.get)

        halves_quiet = {top_sender(quiet[:3000]), top_sender(quiet[3000:])}
        halves_rotating = {top_sender(rotating[:3000]), top_sender(rotating[3000:])}
        # The stationary trace keeps one dominant sender over both halves;
        # the rotating trace (almost surely) does not.
        assert len(halves_quiet) == 1
        assert len(halves_rotating) == 2


def _trace_by_choice(nodes, config):
    """The trace as the per-record ``rng.choice(n, p=weights)`` draw
    produces it — the O(nodes)-per-record loop the cached-CDF draw
    replaced, kept here as its reference."""
    from repro.simulator.rng import exponential_weights, make_rng
    from repro.workload.distributions import ripple_isp_sizes

    nodes = list(nodes)
    rng = make_rng(config.seed)
    scale = config.sender_exponential_scale
    probs = exponential_weights(len(nodes), scale, rng)
    next_rotation = config.rotation_interval
    amounts = ripple_isp_sizes().sample(rng, config.num_transactions)
    gaps = rng.exponential(1.0 / config.arrival_rate, size=config.num_transactions)
    now = 0.0
    rows = []
    for txn_id in range(config.num_transactions):
        now += float(gaps[txn_id])
        if next_rotation is not None and now >= next_rotation:
            probs = exponential_weights(len(nodes), scale, rng)
            next_rotation += config.rotation_interval
        source = nodes[int(rng.choice(len(nodes), p=probs))]
        dest = source
        while dest == source:
            dest = nodes[int(rng.integers(len(nodes)))]
        rows.append((txn_id, now, source, dest, float(amounts[txn_id])))
    return rows


class TestSenderDrawMatchesChoice:
    """The sender draw keeps one CDF per rotation epoch; the RNG stream —
    and so the whole trace — must equal a twin generator's ``rng.choice``."""

    @pytest.mark.parametrize("rotation_interval", [None, 0.25])
    @pytest.mark.parametrize("num_nodes", [32, 3774, 10000])
    def test_whole_trace_equals_choice_on_a_twin_generator(
        self, num_nodes, rotation_interval
    ):
        config = WorkloadConfig(
            num_transactions=1500,
            arrival_rate=1000.0,
            rotation_interval=rotation_interval,
            seed=23,
        )
        records = generate_workload(range(num_nodes), config)
        assert [
            (r.txn_id, r.arrival_time, r.source, r.dest, r.amount) for r in records
        ] == _trace_by_choice(range(num_nodes), config)
        assert all(
            type(r.arrival_time) is float and type(r.amount) is float
            for r in records
        )


class TestValidation:
    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigError):
            generate_workload([1], make_config())

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(num_transactions=0, arrival_rate=1.0)
        with pytest.raises(ConfigError):
            WorkloadConfig(num_transactions=1, arrival_rate=0.0)
        with pytest.raises(ConfigError):
            WorkloadConfig(num_transactions=1, arrival_rate=1.0, rotation_interval=0.0)
        with pytest.raises(ConfigError):
            WorkloadConfig(num_transactions=1, arrival_rate=1.0, deadline=-1.0)
