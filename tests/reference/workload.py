"""The per-record scalar workload loop, kept as the trace generator's oracle.

:func:`~repro.workload.generator.generate_workload` replays this loop's
RNG stream from PCG64's raw outputs instead of making its scalar calls
(see that module's docstring).  This is the loop it replaced: per record,
re-draw the sender weights when a rotation is due, then one
``rng.random()`` through the sender CDF and ``rng.integers(len(nodes))``
until the receiver differs from the sender.  The rows and the generator
state it leaves are what ``tests/workload/test_trace_replay.py`` holds the
kernel to.  :func:`choice_workload` is the loop before it: the sender drawn
with ``rng.choice(n, p=weights)`` per record instead of one CDF per
rotation epoch.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.simulator.rng import exponential_weights, make_rng
from repro.workload.distributions import ripple_isp_sizes
from repro.workload.generator import TransactionRecord, WorkloadConfig, _sender_cdf

__all__ = ["choice_workload", "reference_workload"]


def reference_workload(
    nodes: Sequence[int], config: WorkloadConfig
) -> List[TransactionRecord]:
    """The trace of ``config`` over ``nodes``, one scalar draw at a time."""
    nodes = list(nodes)
    rng = make_rng(config.seed)
    sizes = config.size_distribution or ripple_isp_sizes()
    count = len(nodes)

    sender_cdf = _sender_cdf(count, config.sender_exponential_scale, rng)
    next_rotation = config.rotation_interval

    amounts = sizes.sample(rng, config.num_transactions).tolist()
    gaps = rng.exponential(1.0 / config.arrival_rate, size=config.num_transactions).tolist()

    records: List[TransactionRecord] = []
    now = 0.0
    for txn_id in range(config.num_transactions):
        now += gaps[txn_id]
        if next_rotation is not None and now >= next_rotation:
            sender_cdf = _sender_cdf(count, config.sender_exponential_scale, rng)
            next_rotation += config.rotation_interval
        source = nodes[int(sender_cdf.searchsorted(rng.random(), side="right"))]
        dest = source
        while dest == source:
            dest = nodes[int(rng.integers(count))]
        deadline = None if config.deadline is None else now + config.deadline
        records.append(
            TransactionRecord(
                txn_id=txn_id,
                arrival_time=now,
                source=source,
                dest=dest,
                amount=amounts[txn_id],
                deadline=deadline,
            )
        )
    return records


def choice_workload(nodes: Sequence[int], config: WorkloadConfig) -> List[tuple]:
    """The ``(txn_id, arrival_time, source, dest, amount)`` rows of the
    trace as the per-record ``rng.choice(n, p=weights)`` draw produces it
    (ISP sizes, no deadlines): O(nodes) per record."""
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
