"""Tests for workload generation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workload.distributions import ConstantSize
from repro.workload.generator import Trace, TransactionRecord, WorkloadConfig, generate_workload
from tests.reference.workload import choice_workload


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
        ] == choice_workload(range(num_nodes), config)
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

    @pytest.mark.parametrize("value", [True, 2.5, "3"])
    def test_non_integer_trace_length_rejected(self, value):
        with pytest.raises(ConfigError, match="^num_transactions must be a positive integer"):
            WorkloadConfig(num_transactions=value, arrival_rate=1.0)

    def test_numpy_integer_trace_length_accepted(self):
        assert len(generate_workload(range(4), make_config(num_transactions=np.int64(7)))) == 7

    @pytest.mark.parametrize(
        "field",
        ["arrival_rate", "sender_exponential_scale", "rotation_interval", "deadline"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, "1.0"])
    def test_non_finite_or_non_positive_field_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be positive and finite"):
            make_config(**{field: value})

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            generate_workload([1, 2, 2], make_config())

    def test_generator_other_than_pcg64_rejected(self):
        rng = np.random.Generator(np.random.MT19937(5))
        with pytest.raises(ConfigError, match="PCG64"):
            generate_workload(range(4), make_config(seed=rng))


def _rows():
    return [
        TransactionRecord(4, 0.5, 1, 2, 10.0),
        TransactionRecord(2, 0.25, 2, 1, 20.0, deadline=3.0),
        TransactionRecord(9, 0.25, 1, 2, 30.0),
        TransactionRecord(1, 0.75, 1, 3, 40.0),
    ]


class TestTrace:
    def test_rows_read_back_as_records_of_python_scalars(self):
        rows = _rows()
        trace = Trace.from_records(rows)
        assert len(trace) == 4
        assert trace[1] == rows[1] and trace[-1] == rows[-1]
        assert trace[0].deadline is None and trace[1].deadline == 3.0
        assert trace.row(1) == (2, 0.25, 2, 1, 20.0, 3.0)
        assert {type(value) for value in trace.row(0)} == {int, float, type(None)}
        assert list(trace) == rows
        with pytest.raises(IndexError):
            trace[4]

    def test_equals_the_same_rows_in_a_list_either_way_round(self):
        rows = _rows()
        trace = Trace.from_records(rows)
        assert trace == rows and rows == trace
        assert trace == Trace.from_records(rows)
        assert trace != rows[:3] and trace != list(reversed(rows))
        assert trace != "abcd"

    def test_slices_are_traces(self):
        trace = Trace.from_records(_rows())
        head = trace[:2]
        assert isinstance(head, Trace)
        assert head == _rows()[:2]

    def test_iterates_past_one_chunk(self):
        config = make_config(num_transactions=10_000, deadline=2.0)
        trace = generate_workload(range(6), config)
        rows = list(trace)
        assert len(rows) == 10_000
        assert rows[5000] == trace[5000]
        assert rows[-1].txn_id == 9999

    def test_columns_are_read_only_and_the_caller_keeps_its_arrays(self):
        amounts = np.array([1.0, 2.0])
        trace = Trace([0, 1], [0.1, 0.2], [0, 1], [1, 0], amounts)
        with pytest.raises(ValueError):
            trace.amount[0] = 5.0
        amounts[0] = 5.0  # the caller's own array stays writable
        assert np.isnan(trace.deadline).all()

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ConfigError, match="arrival_time"):
            Trace([0, 1], [0.1], [0, 1], [1, 0], [1.0, 2.0])

    def test_arrival_sort_is_stable_like_sorted(self):
        rows = _rows()
        ordered = Trace.from_records(rows).sorted_by_arrival()
        assert ordered == sorted(rows, key=lambda r: r.arrival_time)
        assert [r.txn_id for r in ordered] == [2, 9, 4, 1]
        in_order = Trace.from_records(ordered)
        assert in_order.sorted_by_arrival() is in_order

    def test_pair_groups_number_pairs_in_sorted_order(self):
        trace = Trace.from_records(_rows())
        first, group = trace.pair_groups()
        # Pairs (1, 2), (1, 3), (2, 1): first seen at rows 0, 3 and 1.
        assert first.tolist() == [0, 3, 1]
        assert group.tolist() == [0, 2, 0, 1]
        first, group = trace.pair_groups(2)
        assert first.tolist() == [0, 1] and group.tolist() == [0, 1]
