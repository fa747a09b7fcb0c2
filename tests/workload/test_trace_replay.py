"""Differential tests: the trace kernel against the scalar workload loop.

:func:`~repro.workload.generator.generate_workload` replays the per-record
``rng.random()`` / ``rng.integers(count)`` calls from PCG64's raw outputs
(its module docstring states the contract).  The oracle is the loop itself,
``tests/reference/workload.py``: every row, every column type and the
generator state left behind must match it exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.session import RuntimeConfig, SimulationSession
from repro.experiments.config import build_size_distribution
from repro.metrics.report import metrics_to_json
from repro.routing.registry import make_scheme
from repro.topology import line_topology
from repro.workload.distributions import EmpiricalSize, UniformSize
from repro.workload.generator import (
    Trace,
    TransactionRecord,
    WorkloadConfig,
    _replay_draws,
    generate_workload,
)
from tests.reference.workload import reference_workload

SIZE_SPECS = ["isp", "ripple", "constant:42", "exp:150"]
NODE_COUNTS = [2, 3, 7, 32, 3774, 10_000]


def _sizes(spec):
    if spec == "uniform":
        return UniformSize(1.0, 300.0)
    if spec == "empirical":
        return EmpiricalSize([5.0, 50.0, 500.0], [3.0, 2.0, 1.0])
    return build_size_distribution(spec)


def _state(rng):
    return rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    node_count=st.sampled_from(NODE_COUNTS),
    # 50/s against a 0.001 s interval: most gaps span many intervals, so
    # the rotation falls behind and the next rows re-draw until it catches up.
    arrival_rate=st.sampled_from([50.0, 1000.0, 20_000.0]),
    rotation_interval=st.sampled_from([None, 0.001, 1.0]),
    deadline=st.sampled_from([None, 5.0]),
    size_spec=st.sampled_from(SIZE_SPECS + ["uniform", "empirical"]),
    num_transactions=st.integers(1, 300),
)
def test_rows_and_generator_state_equal_the_scalar_loop(
    seed, node_count, arrival_rate, rotation_interval, deadline, size_spec, num_transactions
):
    nodes = range(100, 100 + node_count)
    rngs = [np.random.default_rng(seed) for _ in range(2)]

    def config(rng):
        return WorkloadConfig(
            num_transactions=num_transactions,
            arrival_rate=arrival_rate,
            size_distribution=_sizes(size_spec),
            rotation_interval=rotation_interval,
            deadline=deadline,
            seed=rng,
        )

    trace = generate_workload(nodes, config(rngs[0]))
    expected = reference_workload(nodes, config(rngs[1]))
    assert isinstance(trace, Trace)
    assert list(trace) == expected
    assert trace == expected
    assert _state(rngs[0]) == _state(rngs[1])


@pytest.mark.parametrize("node_count", NODE_COUNTS)
@pytest.mark.parametrize("rotation_interval", [None, 0.001, 1.0])
def test_whole_traces_match_at_benchmark_rates(node_count, rotation_interval):
    config = WorkloadConfig(
        num_transactions=2000,
        arrival_rate=1000.0,
        rotation_interval=rotation_interval,
        deadline=5.0,
        seed=23,
    )
    trace = generate_workload(range(node_count), config)
    expected = reference_workload(range(node_count), config)
    assert trace == expected
    row = trace[len(trace) // 2]
    assert all(
        type(value) is kind
        for value, kind in zip(
            (row.txn_id, row.arrival_time, row.source, row.dest, row.amount, row.deadline),
            (int, float, int, int, float, float),
        )
    )


@pytest.mark.parametrize("pre_draws", [0, 1])
@pytest.mark.parametrize("num_transactions", [1, 2, 3, 50, 51])
def test_caller_generator_is_left_in_the_scalar_loops_state(pre_draws, num_transactions):
    """Buffered ``uinteger`` included: the trace lengths end on both
    parities of the 32-bit buffer, and ``pre_draws`` starts with a half
    already buffered."""
    rngs = [np.random.default_rng(77) for _ in range(2)]
    for rng in rngs:
        for _ in range(pre_draws):
            rng.integers(9)
    config = dict(num_transactions=num_transactions, arrival_rate=100.0)
    generate_workload(range(5), WorkloadConfig(seed=rngs[0], **config))
    reference_workload(range(5), WorkloadConfig(seed=rngs[1], **config))
    assert _state(rngs[0]) == _state(rngs[1])
    # ...and so is everything drawn from it afterwards.
    assert rngs[0].integers(1 << 40, size=8).tolist() == rngs[1].integers(1 << 40, size=8).tolist()
    assert rngs[0].integers(1000) == rngs[1].integers(1000)


def _cdf(count):
    if count <= 10_000:
        cdf = np.random.default_rng(count).exponential(size=count).cumsum()
        return cdf / cdf[-1]
    # Counts no node list can reach: every sender is node 0, and the CDF is
    # a zero-stride view instead of `count` floats.
    return np.broadcast_to(1.0, count)


@pytest.mark.parametrize(
    "count",
    # Frequent receiver redraws (3); rejection rates ~0 % (10 000), 25 %
    # (3 * 2**30) and ~50 % (2**31 + 1); a threshold of exactly 1 (2**32 - 1).
    [3, 10_000, 3 * 2**30, 2**31 + 1, 2**32 - 1],
)
def test_bounded_draw_replays_generator_integers(count):
    """``integers(count)`` where Lemire rejection is frequent — counts no
    node list can reach — replayed against the real ``Generator``."""
    rows = 400
    cdf = _cdf(count)
    rng = np.random.default_rng(2024)
    rng.integers(3)  # start with the high half of a raw buffered
    state = _state(rng)
    clone = np.random.PCG64()
    clone.state = state
    take = iter(clone.random_raw(8 * rows).tolist()).__next__
    senders, receivers, used, has_uint32, uinteger = _replay_draws(
        take, cdf, count, rows, bool(state["has_uint32"]), state["uinteger"]
    )
    expected_senders, expected_receivers = [], []
    for _ in range(rows):
        sender = int(np.searchsorted(cdf, rng.random(), side="right"))
        receiver = sender
        while receiver == sender:
            receiver = int(rng.integers(count))
        expected_senders.append(sender)
        expected_receivers.append(receiver)
    assert senders.tolist() == expected_senders
    assert receivers == expected_receivers
    after = _state(rng)
    assert (has_uint32, uinteger) == (bool(after["has_uint32"]), after["uinteger"])
    advanced = np.random.PCG64()
    advanced.state = state
    advanced.random_raw(used)
    assert advanced.state["state"] == after["state"]


def _run(records, scheme="spider-waterfilling"):
    network = line_topology(5).build_network(default_capacity=60.0)
    session = SimulationSession(
        network, records, make_scheme(scheme), RuntimeConfig(check_invariants=True)
    )
    return session, metrics_to_json(session.run()).encode()


def _hand_built_records():
    """Out of arrival order, with a same-tick burst, a tie the stable sort
    must keep in list order, and some deadlines."""
    rows = [
        (7, 0.30, 0, 4, 25.0, None),
        (3, 0.10, 4, 0, 40.0, 2.0),
        (9, 0.10, 1, 3, 10.0, None),  # ties with 3: stays after it
        (4, 0.2000001, 2, 0, 30.0, None),
        (5, 0.2000004, 0, 2, 30.0, 0.9),  # same 1 us tick as 4 once rounded
        (1, 0.05, 3, 1, 80.0, None),
        (8, 1.50, 0, 4, 55.0, None),
    ]
    return [TransactionRecord(*row) for row in rows]


@pytest.mark.parametrize("scheme", ["spider-waterfilling", "shortest-path", "spider-window"])
def test_a_record_list_and_the_same_rows_as_a_trace_run_byte_identically(scheme):
    records = _hand_built_records()
    listed, listed_json = _run(records, scheme)
    columns, columns_json = _run(Trace.from_records(records), scheme)
    assert listed_json == columns_json
    assert listed.records == columns.records == sorted(records, key=lambda r: r.arrival_time)


def test_a_generated_trace_and_the_reference_list_run_byte_identically():
    config = WorkloadConfig(
        num_transactions=400, arrival_rate=80.0, rotation_interval=1.0, deadline=3.0, seed=5
    )
    _, from_trace = _run(generate_workload(range(5), config))
    _, from_list = _run(reference_workload(range(5), config))
    assert from_trace == from_list
