"""Slab event queue and the integer-tick engine.

A heap of handle objects ordered through generated ``__lt__`` calls costs
two allocations and several attribute loads per scheduled event; at
millions of events per run that object churn dominates the simulation's
cost.  Here an event is one flat three-cell record::

    [key, callback, args]      key = tick·2^40 | seq

The packed integer key makes heap ordering a single int comparison (``seq``
is globally monotonic, so keys are unique and list comparison never looks
past the first cell), and the record *is* the cancellation handle:
firing or cancelling just clears the callback cell.  A cancelled record
stays in the heap as a corpse that the run loop skips when it reaches the
top.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.engine.clock import DEFAULT_QUANTUM, TickClock
from repro.errors import SimulationError

__all__ = ["SlabEventQueue", "TickEngine", "TickTimer"]

# Key layout (low to high): 40 seq bits, then the tick.  Python ints are
# unbounded, so the tick field never overflows; 2^40 sequence numbers
# outlast any realistic run.
_TICK_SHIFT = 40
_SEQ_MASK = (1 << _TICK_SHIFT) - 1

#: Type of one scheduled-event record.
Entry = List[Any]  # [key: int, callback: Optional[Callable], args: tuple]


class SlabEventQueue:
    """Min-heap of flat ``[key, callback, args]`` event records.

    Pure mechanism: it knows nothing about clocks or float seconds.
    :class:`TickEngine` composes it with a :class:`TickClock` and pops it
    in its run loop.  The record returned by :meth:`schedule` doubles as
    the cancellation handle.
    """

    __slots__ = ("heap", "_seq")

    def __init__(self) -> None:
        self.heap: List[Entry] = []
        self._seq = 0

    def schedule(
        self,
        tick: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> Entry:
        """Schedule ``callback(*args)`` at ``tick``; returns the record."""
        seq = self._seq
        self._seq = seq + 1
        entry: Entry = [(tick << _TICK_SHIFT) | (seq & _SEQ_MASK), callback, args]
        heappush(self.heap, entry)
        return entry

    def schedule_many(
        self,
        ticks: List[int],
        callbacks: Callable[..., Any] | Sequence[Callable[..., Any]],
        args_list: List[Tuple[Any, ...]],
    ) -> List[Entry]:
        """Schedule a batch of events in one slab append; returns records.

        ``callbacks`` is either one shared callable or a per-event
        sequence.  Pop order is provably identical to issuing the same
        :meth:`schedule` calls one by one: keys embed the globally
        monotonic sequence counter, so every key is unique and totally
        ordered — a bulk ``extend`` + ``heapify`` reorganises the heap's
        internal shape but cannot change which key is smallest at any
        pop (pinned by the dispatch test suite).  For small batches
        against a large heap, repeated pushes are cheaper than an O(heap)
        heapify, so the method picks per batch/heap size; both routes
        yield the same pop order for the same reason.
        """
        if callable(callbacks):
            callbacks = [callbacks] * len(ticks)
        seq = self._seq
        entries: List[Entry] = [
            [(tick << _TICK_SHIFT) | ((seq + i) & _SEQ_MASK), callback, args]
            for i, (tick, callback, args) in enumerate(
                zip(ticks, callbacks, args_list)
            )
        ]
        self._seq = seq + len(entries)
        heap = self.heap
        if len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapify(heap)
        else:
            for entry in entries:
                heappush(heap, entry)
        return entries

    def cancel(self, entry: Entry) -> bool:
        """Cancel a scheduled record; returns whether it was still live.

        Cancelling an already-fired or already-cancelled record is a no-op.
        """
        if entry[1] is None:
            return False
        entry[1] = None
        entry[2] = None
        return True

    def peek_tick(self) -> Optional[int]:
        """Tick of the earliest live event, or ``None`` if empty."""
        heap = self.heap
        while heap and heap[0][1] is None:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0] >> _TICK_SHIFT


class TickEngine:
    """Deterministic discrete-event engine on an integer-tick clock.

    Events at equal ticks fire in scheduling order, callbacks may schedule
    and cancel freely, and runs are reproducible bit-for-bit.  Times given
    to and reported by the public API are float seconds; internally
    everything is ticks of ``quantum`` seconds.

    Every scheduling call returns the raw event record, which
    :meth:`cancel` takes: :meth:`schedule_after` (relative seconds),
    :meth:`schedule_at_tick` and :meth:`schedule_many` (absolute ticks)
    and :meth:`call_at` (absolute seconds).  :meth:`run` is the one loop
    that fires them.
    """

    def __init__(self, start_time: float = 0.0, quantum: float = DEFAULT_QUANTUM):
        self.clock = TickClock(quantum)
        self._quantum = self.clock.quantum
        self._inv_quantum = 1.0 / self._quantum
        self._tick = self.clock.to_ticks(start_time)
        self._queue = SlabEventQueue()
        self._running = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds (``now_tick × quantum``)."""
        return self._tick * self._quantum

    @property
    def now_tick(self) -> int:
        """Current simulated time in ticks."""
        return self._tick

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def queue(self) -> SlabEventQueue:
        """The underlying slab queue (exposed for tests and benchmarks)."""
        return self._queue

    # ------------------------------------------------------------------
    # Scheduling (raw records)
    # ------------------------------------------------------------------
    def schedule_at_tick(
        self, tick: int, callback: Callable[..., Any], args: Tuple[Any, ...] = ()
    ) -> Entry:
        """Schedule at an absolute ``tick``; returns the raw record."""
        if tick < self._tick:
            raise SimulationError(
                f"cannot schedule event in the past (now_tick={self._tick}, requested={tick})"
            )
        return self._queue.schedule(tick, callback, args)

    def schedule_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Entry:
        """Schedule after ``delay`` seconds; returns the raw record.

        This is the fire-and-forget fast path: one record allocation, one
        heap push, no handle object.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        entry: Entry = [
            (
                ((self._tick + round(delay * self._inv_quantum)) << _TICK_SHIFT)
                | (seq & _SEQ_MASK)
            ),
            callback,
            args,
        ]
        heappush(queue.heap, entry)
        return entry

    def schedule_many(
        self,
        ticks: List[int],
        callbacks: Callable[..., Any] | Sequence[Callable[..., Any]],
        args_list: List[Tuple[Any, ...]],
    ) -> List[Entry]:
        """Bulk-schedule events at absolute ``ticks`` (one slab append).

        ``callbacks`` may be one shared callable or a per-event sequence;
        firing order is identical to the equivalent sequence of
        :meth:`schedule_at_tick` calls (see
        :meth:`SlabEventQueue.schedule_many`).  The session uses this to
        schedule the whole transaction trace without one heap push per
        record.
        """
        now = self._tick
        if ticks and min(ticks) < now:
            tick = next(tick for tick in ticks if tick < now)
            raise SimulationError(
                f"cannot schedule event in the past "
                f"(now_tick={now}, requested={tick})"
            )
        return self._queue.schedule_many(ticks, callbacks, args_list)

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Entry:
        """Schedule at absolute ``time`` seconds; returns the raw record."""
        return self.schedule_at_tick(self.clock.to_ticks(time), callback, args)

    def delay_ticks(self, delay: float) -> int:
        """Ticks :meth:`schedule_after` adds for ``delay`` seconds.

        Exposed so transports can predict (and compare) landing ticks of
        relative schedules without duplicating the rounding rule.
        """
        return round(delay * self._inv_quantum)

    def cancel(self, entry: Entry) -> bool:
        """Cancel a raw-record event; returns whether it was still live."""
        return self._queue.cancel(entry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Fire events in tick order.

        Events at ``time <= until`` fire and the clock then advances to
        exactly ``until`` (quantised); later events stay scheduled for a
        later call.  Without ``until`` the queue drains and the clock
        stops at the last event.  Returns the final simulated time in
        seconds.
        """
        if self._running:
            raise SimulationError("TickEngine.run() is not reentrant")
        until_tick = None if until is None else self.clock.to_ticks(until)
        if until_tick is not None and until_tick < self._tick:
            raise SimulationError(
                f"cannot run backwards (now={self.now:.6g}, until={until:.6g})"
            )
        self._running = True
        bound = math.inf if until_tick is None else until_tick
        heap = self._queue.heap
        pop = heappop
        shift = _TICK_SHIFT
        try:
            # Peek before popping so events beyond the horizon stay
            # scheduled for a later run() call.
            while heap:
                entry = heap[0]
                callback = entry[1]
                if callback is None:  # cancelled corpse
                    pop(heap)
                    continue
                tick = entry[0] >> shift
                if tick > bound:
                    break
                pop(heap)
                entry[1] = None  # consumed: a late cancel() must be a no-op
                self._tick = tick
                callback(*entry[2])
                self._events_processed += 1
            if until_tick is not None and until_tick > self._tick:
                self._tick = until_tick
        finally:
            self._running = False
        return self.now

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        start_delay: Optional[float] = None,
    ) -> "TickTimer":
        """Fixed-interval periodic callback (tick-exact, drift-free)."""
        return TickTimer(self, interval, callback, start_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TickEngine(now={self.now:.6g}, queued={len(self._queue.heap)})"


class TickTimer:
    """Recurring timer on :class:`TickEngine` with tick-exact periods.

    Successive fire times are ``first + k·interval`` in exact integer
    ticks, so long runs never drift.
    """

    __slots__ = ("_engine", "_interval_ticks", "_callback", "_active", "_ticks", "_next", "_entry")

    def __init__(
        self,
        engine: TickEngine,
        interval: float,
        callback: Callable[[], Any],
        start_delay: Optional[float] = None,
    ):
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval!r}")
        self._engine = engine
        self._interval_ticks = max(1, engine.clock.to_ticks(interval))
        self._callback = callback
        self._active = True
        self._ticks = 0
        first = interval if start_delay is None else start_delay
        self._next = engine.now_tick + max(0, engine.clock.to_ticks(first))
        self._entry = engine.schedule_at_tick(self._next, self._fire)

    @property
    def ticks(self) -> int:
        """Number of times the callback has run."""
        return self._ticks

    @property
    def active(self) -> bool:
        """Whether the timer will keep firing."""
        return self._active

    def stop(self) -> None:
        """Stop the timer; the pending invocation is cancelled."""
        self._active = False
        self._engine.cancel(self._entry)

    def _fire(self) -> None:
        if not self._active:
            return
        self._ticks += 1
        self._callback()
        if self._active:
            self._next += self._interval_ticks
            self._entry = self._engine.schedule_at_tick(self._next, self._fire)
