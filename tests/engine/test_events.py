"""Tests for the slab event queue and the integer-tick engine.

The engine's contract — time-ordered, FIFO-stable, deterministic execution
— is what every other result in this repository rests on: the example
tests below pin each rule, and hypothesis drives randomized schedules
against it.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.clock import TickClock
from repro.engine.events import SlabEventQueue, TickEngine
from repro.errors import ConfigError, SimulationError


def fire_in_key_order(queue):
    """Fire a bare queue's live records in key order, as the engine's run
    loop pops them."""
    for entry in sorted(queue.heap, key=lambda entry: entry[0]):
        if entry[1] is not None:
            entry[1](*entry[2])


class TestTickClock:
    def test_round_trip(self):
        clock = TickClock(1e-6)
        assert clock.to_ticks(0.5) == 500_000
        assert clock.to_seconds(500_000) == pytest.approx(0.5)

    def test_invalid_quantum(self):
        with pytest.raises(ConfigError):
            TickClock(0.0)
        with pytest.raises(ConfigError):
            TickClock(float("nan"))

    def test_non_finite_time(self):
        with pytest.raises(ConfigError):
            TickClock().to_ticks(float("inf"))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-1e7, 1e7, allow_nan=False),
                # Exact half-tick times, where rounding must go to even.
                st.integers(-10**9, 10**9).map(lambda n: (n + 0.5) * 1e-6),
            ),
            max_size=50,
        )
    )
    def test_to_ticks_many_equals_to_ticks_elementwise(self, times):
        clock = TickClock(1e-6)
        ticks = clock.to_ticks_many(np.array(times, dtype=np.float64))
        assert ticks.dtype == np.int64
        assert ticks.tolist() == [clock.to_ticks(t) for t in times]

    def test_to_ticks_many_rounds_half_to_even(self):
        clock = TickClock(1.0)
        assert clock.to_ticks_many(np.array([0.5, 1.5, 2.5, -0.5])).tolist() == [0, 2, 2, 0]

    @pytest.mark.parametrize(
        "time,message",
        [
            (float("nan"), "cannot quantise non-finite time nan"),
            (float("-inf"), "cannot quantise non-finite time -inf"),
            (1e300, "time 1e+300 is beyond the tick range"),
        ],
    )
    def test_to_ticks_many_rejects_what_no_tick_holds(self, time, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            TickClock(1e-6).to_ticks_many(np.array([0.25, time]))


class TestSlabEventQueue:
    def test_fires_in_tick_order(self):
        queue = SlabEventQueue()
        fired = []
        queue.schedule(30, fired.append, (3,))
        queue.schedule(10, fired.append, (1,))
        queue.schedule(20, fired.append, (2,))
        fire_in_key_order(queue)
        assert fired == [1, 2, 3]

    def test_fifo_among_equal_ticks(self):
        queue = SlabEventQueue()
        order = []
        for label in "abc":
            queue.schedule(5, order.append, (label,))
        fire_in_key_order(queue)
        assert order == ["a", "b", "c"]

    def test_cancel_is_idempotent_and_skipped(self):
        queue = SlabEventQueue()
        fired = []
        entry = queue.schedule(1, fired.append, ("x",))
        assert queue.cancel(entry) is True
        assert queue.cancel(entry) is False
        assert queue.peek_tick() is None
        assert queue.heap == []
        assert fired == []

    def test_peek_tick_skips_cancelled(self):
        queue = SlabEventQueue()
        first = queue.schedule(1, lambda: None)
        queue.schedule(2, lambda: None)
        queue.cancel(first)
        assert queue.peek_tick() == 2

    @pytest.mark.parametrize("preloaded", [0, 100], ids=["heapify", "push"])
    def test_schedule_many_orders_like_one_by_one(self, preloaded):
        """Both routes of the bulk schedule (extend + heapify for a batch
        comparable to the heap, pushes for a small batch against a large
        heap) fire exactly like the same ``schedule`` calls in turn."""
        ticks = [7, 3, 7, 1, 3, 9, 1]

        def order(bulk):
            queue = SlabEventQueue()
            fired = []
            for i in range(preloaded):
                queue.schedule(5 + i % 3, fired.append, (("pre", i),))
            args = [((tick, i),) for i, tick in enumerate(ticks)]
            if bulk:
                queue.schedule_many(ticks, fired.append, args)
            else:
                for tick, arg in zip(ticks, args):
                    queue.schedule(tick, fired.append, arg)
            fire_in_key_order(queue)
            return fired

        assert order(bulk=True) == order(bulk=False)


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.call_at(3.0, lambda: fired.append(3))
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2, 3]

    def test_equal_times_fire_in_scheduling_order(self, sim):
        fired = []
        for i in range(10):
            sim.call_at(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_schedule_after_is_relative(self, sim):
        times = []
        sim.call_at(5.0, lambda: sim.schedule_after(2.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [7.5]

    def test_chained_events_and_now(self, sim):
        times = []

        def tick():
            times.append(sim.now)
            if len(times) < 3:
                sim.schedule_after(0.5, tick)

        sim.schedule_after(0.5, tick)
        sim.run()
        assert times == pytest.approx([0.5, 1.0, 1.5])

    def test_callback_args_are_passed(self, sim):
        received = []
        sim.call_at(1.0, lambda a, b: received.append((a, b)), 1, "x")
        sim.run()
        assert received == [(1, "x")]

    def test_call_at_returns_the_raw_record(self, sim):
        entry = sim.call_at(2.0, print, "x")
        assert entry in sim.queue.heap
        assert entry[1:] == [print, ("x",)]
        assert sim.queue.peek_tick() == sim.clock.to_ticks(2.0)

    def test_schedule_at_tick_and_schedule_many_share_the_order(self, sim):
        fired = []
        sim.schedule_at_tick(20, fired.append, ("tick-20",))
        sim.schedule_many([10, 20], fired.append, [("many-10",), ("many-20",)])
        sim.schedule_at_tick(10, fired.append, ("tick-10",))
        sim.run()
        assert fired == ["many-10", "tick-10", "tick-20", "many-20"]

    def test_scheduling_in_past_raises(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(4.0, lambda: None)

    def test_cannot_schedule_in_past(self, sim):
        sim.schedule_after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at_tick(0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, lambda: None)

    def test_schedule_many_rejects_a_past_tick_and_schedules_nothing(self, sim):
        sim.run(until=1.0)
        now = sim.now_tick
        with pytest.raises(SimulationError):
            sim.schedule_many([now + 5, now - 1], print, [(), ()])
        assert sim.queue.heap == []

    def test_non_finite_time_raises(self, sim):
        with pytest.raises(ConfigError):
            sim.call_at(float("inf"), lambda: None)
        with pytest.raises(ConfigError):
            sim.call_at(float("nan"), lambda: None)

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule_after(1.0, lambda: fired.append("second"))

        sim.call_at(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_event_at_current_time_during_run_executes(self, sim):
        fired = []
        sim.call_at(1.0, lambda: sim.call_at(1.0, lambda: fired.append("same-time")))
        sim.run()
        assert fired == ["same-time"]

    def test_determinism_same_schedule_same_order(self):
        def trace():
            eng = TickEngine()
            order = []
            for i in range(50):
                eng.schedule_after(0.001 * ((i * 7) % 10), order.append, i)
            eng.run()
            return order

        assert trace() == trace()


class TestClock:
    def test_clock_starts_at_start_time(self):
        assert TickEngine(start_time=10.0).now == 10.0

    def test_non_finite_start_time_raises(self):
        with pytest.raises(ConfigError):
            TickEngine(start_time=float("nan"))

    def test_clock_advances_to_event_times(self, sim):
        times = []
        sim.call_at(1.5, lambda: times.append(sim.now))
        sim.call_at(4.25, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.25]

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_backwards_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_events_processed_counts(self, sim):
        for i in range(4):
            sim.schedule_after(0.1 * (i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestRunHorizon:
    def test_run_until_excludes_later_events(self, sim):
        fired = []
        sim.call_at(1.0, fired.append, 1)
        sim.call_at(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.call_at(5.0, fired.append, 5)
        sim.run(until=5.0)
        assert fired == [5]

    def test_run_until_advances_clock_exactly(self, sim):
        fired = []
        sim.schedule_after(2.0, fired.append, "late")
        assert sim.run(until=1.0) == pytest.approx(1.0)
        assert fired == []
        assert sim.queue.peek_tick() == sim.clock.to_ticks(2.0)
        sim.run()
        assert fired == ["late"]

    def test_run_without_horizon_stops_the_clock_at_the_last_event(self, sim):
        sim.call_at(3.0, lambda: None)
        assert sim.run() == 3.0
        assert sim.queue.heap == []
        assert sim.run() == 3.0  # an empty queue leaves the clock alone


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        entry = sim.call_at(1.0, fired.append, 1)
        assert sim.cancel(entry) is True
        sim.run()
        assert fired == []
        assert sim.events_processed == 0

    def test_cancel_is_idempotent(self, sim):
        entry = sim.call_at(1.0, lambda: None)
        assert sim.cancel(entry) is True
        assert sim.cancel(entry) is False

    def test_cancel_after_fire_is_noop(self, sim):
        fired = []
        entry = sim.schedule_after(0.1, fired.append, "x")
        sim.run()
        assert sim.cancel(entry) is False
        assert fired == ["x"]

    def test_cancel_from_earlier_event(self, sim):
        fired = []
        later = sim.call_at(2.0, fired.append, "later")
        sim.call_at(1.0, sim.cancel, later)
        sim.run()
        assert fired == []

    def test_mid_run_cancels_keep_new_events(self, sim):
        """A callback that cancels most of a large heap and then schedules
        must not strand the new event: the cancelled records stay as
        corpses in the one heap the run loop reads, and it skips them."""
        fired = []
        entries = [sim.schedule_after(10.0 + i, fired.append, i) for i in range(100)]

        def cancel_then_schedule():
            for entry in entries:
                sim.cancel(entry)
            sim.schedule_after(0.5, fired.append, "late")

        sim.schedule_after(0.1, cancel_then_schedule)
        sim.run()
        assert fired == ["late"]
        assert sim.queue.heap == []
        assert sim.events_processed == 2


class TestRecurringTimer:
    def test_fires_at_fixed_interval(self, sim):
        times = []
        timer = sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]
        assert timer.ticks == 3

    def test_start_delay_overrides_first_fire(self, sim):
        times = []
        sim.every(1.0, lambda: times.append(sim.now), start_delay=0.25)
        sim.run(until=2.5)
        assert times == [0.25, 1.25, 2.25]

    def test_stop_prevents_future_fires(self, sim):
        times = []
        timer = sim.every(1.0, lambda: times.append(sim.now))
        sim.call_at(2.5, timer.stop)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        assert not timer.active

    def test_stop_from_within_callback(self, sim):
        timer = sim.every(0.5, lambda: timer.stop())
        sim.run(until=5.0)
        assert timer.ticks == 1
        assert not timer.active

    def test_non_positive_interval_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)


class TestReentrancy:
    def test_run_is_not_reentrant(self, sim):
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.call_at(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_a_raising_callback_leaves_the_engine_runnable(self, sim):
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.call_at(1.0, boom)
        sim.call_at(2.0, fired.append, 2)
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert fired == [2]


# ----------------------------------------------------------------------
# Randomized schedules
# ----------------------------------------------------------------------
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
    records = []
    for index, (time, cancel) in enumerate(entries):
        records.append((sim.call_at(time, fired.append, index), cancel))
    for record, cancel in records:
        if cancel:
            sim.cancel(record)
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
            sim.schedule_after(delay, step)

    sim.schedule_after(delays[0], step)
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
