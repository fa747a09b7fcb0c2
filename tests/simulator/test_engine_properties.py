"""Property-based tests for the event engine.

The engine's contract — time-ordered, FIFO-stable, deterministic execution
— is what every other result in this repository rests on; hypothesis
drives randomized schedules against it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import TickEngine

schedule = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.booleans(),  # whether to cancel this event
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(schedule)
def test_events_fire_in_nondecreasing_time_order(entries):
    sim = TickEngine()
    fired_times = []
    for time, _ in entries:
        sim.call_at(time, lambda t=time: fired_times.append(t))
    sim.run()
    # Times closer than one quantum share a tick and fire in scheduling order.
    fired_ticks = [sim.clock.to_ticks(t) for t in fired_times]
    assert fired_ticks == sorted(fired_ticks)
    assert len(fired_times) == len(entries)


@settings(max_examples=150, deadline=None)
@given(schedule)
def test_cancelled_events_never_fire(entries):
    sim = TickEngine()
    fired = []
    handles = []
    for index, (time, cancel) in enumerate(entries):
        handles.append((sim.call_at(time, fired.append, index), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    expected = {i for i, (_, cancel) in enumerate(entries) if not cancel}
    assert set(fired) == expected


@settings(max_examples=100, deadline=None)
@given(schedule, st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_split_runs_equal_single_run(entries, cut):
    """run(until=cut); run() produces the same firing order as run()."""
    def execute(split: bool):
        sim = TickEngine()
        fired = []
        for index, (time, _) in enumerate(entries):
            sim.call_at(time, fired.append, (time, index))
        if split:
            sim.run(until=cut)
            sim.run()
        else:
            sim.run()
        return fired

    assert execute(split=True) == execute(split=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=30))
def test_chained_relative_delays_accumulate(delays):
    sim = TickEngine()
    times = []
    iterator = iter(delays[1:])

    def step():
        times.append(sim.now)
        delay = next(iterator, None)
        if delay is not None:
            sim.call_after(delay, step)

    sim.call_after(delays[0], step)
    sim.run()
    # One firing per delay; the clock ends at the sum of all delays.
    assert len(times) == len(delays)
    assert times == sorted(times)
    # Each relative delay rounds to the nearest tick.
    assert sim.now == pytest.approx(sum(delays), abs=len(delays) * sim.clock.quantum)


@settings(max_examples=100, deadline=None)
@given(schedule)
def test_same_schedule_is_bitwise_deterministic(entries):
    def execute():
        sim = TickEngine()
        order = []
        for index, (time, _) in enumerate(entries):
            sim.call_at(time, order.append, index)
        sim.run()
        return order, sim.now, sim.events_processed

    assert execute() == execute()
