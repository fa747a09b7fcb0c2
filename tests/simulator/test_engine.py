"""Tests for the discrete-event engine's scheduling contract."""

from __future__ import annotations

import pytest

from repro.engine.events import TickEngine
from repro.errors import ConfigError, SimulationError


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

    def test_priority_breaks_ties_before_sequence(self, sim):
        fired = []
        sim.call_at(1.0, fired.append, "late", priority=1)
        sim.call_at(1.0, fired.append, "early", priority=0)
        sim.run()
        assert fired == ["early", "late"]

    def test_call_after_is_relative(self, sim):
        times = []
        sim.call_at(5.0, lambda: sim.call_after(2.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [7.5]

    def test_callback_args_are_passed(self, sim):
        received = []
        sim.call_at(1.0, lambda a, b: received.append((a, b)), 1, "x")
        sim.run()
        assert received == [(1, "x")]

    def test_scheduling_in_past_raises(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(4.0, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(-1.0, lambda: None)

    def test_non_finite_time_raises(self, sim):
        with pytest.raises(ConfigError):
            sim.call_at(float("inf"), lambda: None)
        with pytest.raises(ConfigError):
            sim.call_at(float("nan"), lambda: None)

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.call_after(1.0, lambda: fired.append("second"))

        sim.call_at(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_event_at_current_time_during_run_executes(self, sim):
        fired = []
        sim.call_at(1.0, lambda: sim.call_at(1.0, lambda: fired.append("same-time")))
        sim.run()
        assert fired == ["same-time"]


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


class TestRunControl:
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

    def test_max_events_bounds_execution(self, sim):
        fired = []
        for i in range(10):
            sim.call_at(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_from_callback_halts_run(self, sim):
        fired = []

        def stopper():
            fired.append(1)
            sim.stop()

        sim.call_at(1.0, stopper)
        sim.call_at(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]

    def test_step_fires_one_event(self, sim):
        fired = []
        sim.call_at(1.0, fired.append, 1)
        sim.call_at(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.call_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_peek_returns_next_pending_time(self, sim):
        assert sim.peek() is None
        event = sim.call_at(2.0, lambda: None)
        sim.call_at(5.0, lambda: None)
        assert sim.peek() == 2.0
        event.cancel()
        assert sim.peek() == 5.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.call_at(1.0, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []
        assert not event.pending

    def test_cancel_is_idempotent(self, sim):
        event = sim.call_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert not event.pending

    def test_cancel_from_earlier_event(self, sim):
        fired = []
        later = sim.call_at(2.0, fired.append, "later")
        sim.call_at(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_pending_property_lifecycle(self, sim):
        event = sim.call_at(1.0, lambda: None)
        assert event.pending
        sim.run()
        assert not event.pending


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
        timer = sim.every(1.0, lambda: timer.stop())
        sim.run(until=5.0)
        assert timer.ticks == 1

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
