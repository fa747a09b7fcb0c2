"""Tests for the slab event queue and the integer-tick engine."""

from __future__ import annotations

import pytest

from repro.engine.clock import TickClock
from repro.engine.events import SlabEventQueue, TickEngine
from repro.errors import ConfigError, SimulationError


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


class TestSlabEventQueue:
    def test_fires_in_tick_order(self):
        queue = SlabEventQueue()
        fired = []
        queue.schedule(30, fired.append, (3,))
        queue.schedule(10, fired.append, (1,))
        queue.schedule(20, fired.append, (2,))
        while (popped := queue.pop()) is not None:
            _, callback, args = popped
            callback(*args)
        assert fired == [1, 2, 3]

    def test_fifo_among_equal_ticks(self):
        queue = SlabEventQueue()
        order = []
        for label in "abc":
            queue.schedule(5, order.append, (label,))
        while (popped := queue.pop()) is not None:
            popped[1](*popped[2])
        assert order == ["a", "b", "c"]

    def test_priority_beats_fifo_at_equal_tick(self):
        queue = SlabEventQueue()
        order = []
        queue.schedule(5, order.append, ("late",), priority=1)
        queue.schedule(5, order.append, ("early",), priority=0)
        while (popped := queue.pop()) is not None:
            popped[1](*popped[2])
        assert order == ["early", "late"]

    def test_cancel_is_idempotent_and_skipped(self):
        queue = SlabEventQueue()
        fired = []
        entry = queue.schedule(1, fired.append, ("x",))
        assert queue.cancel(entry) is True
        assert queue.cancel(entry) is False
        assert len(queue) == 0
        assert queue.pop() is None
        assert fired == []

    def test_compaction_drops_corpses(self):
        queue = SlabEventQueue()
        entries = [queue.schedule(t, lambda: None) for t in range(200)]
        for entry in entries[:150]:
            queue.cancel(entry)
        # Corpses outnumbering live events triggered at least one compaction,
        # so the heap cannot still hold all 150 cancelled entries.
        assert len(queue) == 50
        assert len(queue.heap) < 200
        queue.compact()
        assert len(queue.heap) == 50

    def test_peek_tick_skips_cancelled(self):
        queue = SlabEventQueue()
        first = queue.schedule(1, lambda: None)
        queue.schedule(2, lambda: None)
        queue.cancel(first)
        assert queue.peek_tick() == 2


class TestTickEngine:
    def test_chained_events_and_now(self):
        eng = TickEngine()
        times = []
        def tick():
            times.append(eng.now)
            if len(times) < 3:
                eng.schedule_after(0.5, tick)
        eng.schedule_after(0.5, tick)
        eng.run()
        assert times == pytest.approx([0.5, 1.0, 1.5])

    def test_run_until_advances_clock_exactly(self):
        eng = TickEngine()
        fired = []
        eng.schedule_after(2.0, fired.append, "late")
        assert eng.run(until=1.0) == pytest.approx(1.0)
        assert fired == []
        eng.run()
        assert fired == ["late"]

    def test_max_events(self):
        eng = TickEngine()
        fired = []
        for i in range(5):
            eng.schedule_after(0.1 * (i + 1), fired.append, i)
        eng.run(max_events=2)
        assert fired == [0, 1]
        eng.run(max_events=0)
        assert fired == [0, 1]
        eng.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_cannot_schedule_in_past(self):
        eng = TickEngine()
        eng.schedule_after(1.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule_at_tick(0, lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule_after(-0.1, lambda: None)

    def test_stop_from_callback(self):
        eng = TickEngine()
        fired = []

        def first():
            fired.append(1)
            eng.stop()

        eng.schedule_after(0.1, first)
        eng.schedule_after(0.2, fired.append, 2)
        eng.run()
        assert fired == [1]
        assert eng.pending_events == 1

    def test_step_and_peek(self):
        eng = TickEngine()
        fired = []
        eng.schedule_after(0.25, fired.append, "a")
        eng.schedule_after(0.75, fired.append, "b")
        assert eng.peek() == pytest.approx(0.25)
        assert eng.step() is True
        assert fired == ["a"]
        assert eng.now == pytest.approx(0.25)
        assert eng.step() is True and eng.step() is False

    def test_handle_cancel_and_pending(self):
        eng = TickEngine()
        fired = []
        handle = eng.call_after(0.5, fired.append, "x")
        assert handle.pending
        handle.cancel()
        assert not handle.pending
        eng.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        eng = TickEngine()
        handle = eng.call_after(0.1, lambda: None)
        eng.run()
        before = eng.pending_events
        handle.cancel()  # must not corrupt the live counter
        assert eng.pending_events == before == 0

    def test_events_processed_counts(self):
        eng = TickEngine()
        for i in range(4):
            eng.schedule_after(0.1 * (i + 1), lambda: None)
        eng.run()
        assert eng.events_processed == 4

    def test_tick_timer_stop_inside_callback(self):
        eng = TickEngine()
        seen = []
        timer = eng.every(0.5, lambda: (seen.append(eng.now), timer.stop()))
        eng.run(until=5.0)
        assert len(seen) == 1
        assert not timer.active

    def test_mid_run_compaction_keeps_new_events(self):
        """A callback that triggers compaction must not strand later events.

        Regression: run() holds a direct reference to the heap list, and a
        callback cancelling >half of a large heap compacts it mid-run —
        compaction must mutate the list in place, or events scheduled after
        it land in a heap the drain loop never reads.
        """
        eng = TickEngine()
        fired = []
        handles = [eng.call_after(10.0 + i, lambda: None) for i in range(100)]

        def cancel_then_schedule():
            for handle in handles:
                handle.cancel()  # trips compaction inside the queue
            eng.schedule_after(0.5, fired.append, "late")

        eng.schedule_after(0.1, cancel_then_schedule)
        eng.run()
        assert fired == ["late"]
        assert eng.pending_events == 0
        assert eng.queue._cancelled == 0

    def test_determinism_same_schedule_same_order(self):
        def trace():
            eng = TickEngine()
            order = []
            for i in range(50):
                eng.schedule_after(0.001 * ((i * 7) % 10), order.append, i)
            eng.run()
            return order

        assert trace() == trace()
