"""Slab event queue and the integer-tick engine.

A heap of handle objects ordered through generated ``__lt__`` calls costs
two allocations and several attribute loads per scheduled event; at
millions of events per run that object churn dominates the simulation's
cost.  Here an event is one flat three-cell record::

    [key, callback, args]      key = tick·2^44 | priority·2^40 | seq

The packed integer key makes heap ordering a single int comparison (``seq``
is globally monotonic, so keys are unique and list comparison never looks
past the first cell), and the record *is* the cancellation handle: firing
or cancelling just clears the callback cell, with no wrapper object in the
common fire-and-forget case.

Cancelled records stay in the heap as corpses that pop skips lazily; when
corpses outnumber live events the heap is compacted wholesale, keeping
cancellation amortised O(log n).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.engine.clock import DEFAULT_QUANTUM, TickClock
from repro.errors import SimulationError

__all__ = ["SlabEventQueue", "TickEngine", "TickHandle", "TickTimer"]

# Key layout (low to high): 40 seq bits, 4 priority bits, then the tick.
# Python ints are unbounded, so the tick field never overflows; 2^40
# sequence numbers outlast any realistic run.
_SEQ_BITS = 40
_PRIO_BITS = 4
_SEQ_MASK = (1 << _SEQ_BITS) - 1
_TICK_SHIFT = _SEQ_BITS + _PRIO_BITS
_MAX_PRIORITY = (1 << _PRIO_BITS) - 1

#: Type of one scheduled-event record.
Entry = List[Any]  # [key: int, callback: Optional[Callable], args: tuple]


class SlabEventQueue:
    """Min-heap of flat ``[key, callback, args]`` event records.

    Pure mechanism: it knows nothing about clocks or float seconds.
    :class:`TickEngine` composes it with a :class:`TickClock`.  The record
    returned by :meth:`schedule` doubles as the cancellation handle.
    """

    __slots__ = ("heap", "_seq", "_live", "_cancelled")

    def __init__(self) -> None:
        self.heap: List[Entry] = []
        self._seq = 0
        self._live = 0
        self._cancelled = 0

    def __len__(self) -> int:
        """Number of live (scheduled, not cancelled) events."""
        return self._live

    def schedule(
        self,
        tick: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> Entry:
        """Schedule ``callback(*args)`` at ``tick``; returns the record."""
        if not 0 <= priority <= _MAX_PRIORITY:
            raise SimulationError(
                f"priority must be in [0, {_MAX_PRIORITY}], got {priority!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry: Entry = [
            (((tick << _PRIO_BITS) | priority) << _SEQ_BITS) | (seq & _SEQ_MASK),
            callback,
            args,
        ]
        heappush(self.heap, entry)
        self._live += 1
        return entry

    def schedule_many(
        self,
        ticks: List[int],
        callbacks: Callable[..., Any] | Sequence[Callable[..., Any]],
        args_list: List[Tuple[Any, ...]],
        priority: int = 0,
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
        if not 0 <= priority <= _MAX_PRIORITY:
            raise SimulationError(
                f"priority must be in [0, {_MAX_PRIORITY}], got {priority!r}"
            )
        if callable(callbacks):
            callbacks = [callbacks] * len(ticks)
        seq = self._seq
        entries: List[Entry] = [
            [
                (((tick << _PRIO_BITS) | priority) << _SEQ_BITS)
                | ((seq + i) & _SEQ_MASK),
                callback,
                args,
            ]
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
        self._live += len(entries)
        return entries

    def cancel(self, entry: Entry) -> bool:
        """Cancel a scheduled record; returns whether it was still live.

        Cancelling an already-fired or already-cancelled record is a no-op.
        """
        if entry[1] is None:
            return False
        entry[1] = None
        entry[2] = None
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > self._live and len(self.heap) >= 64:
            self.compact()
        return True

    def compact(self) -> None:
        """Drop cancelled corpses and restore the heap invariant.

        Compacts **in place** (slice assignment, not rebinding): a run()
        loop holds a direct reference to this list, and compaction can
        trigger mid-run from a callback that cancels events.
        """
        self.heap[:] = [entry for entry in self.heap if entry[1] is not None]
        heapify(self.heap)
        self._cancelled = 0

    def pop(self) -> Optional[Tuple[int, Callable[..., Any], tuple]]:
        """Remove and return the earliest live event as ``(tick, cb, args)``."""
        heap = self.heap
        while heap:
            entry = heappop(heap)
            callback = entry[1]
            if callback is None:
                self._cancelled -= 1
                continue
            entry[1] = None  # consumed: a late cancel() must be a no-op
            self._live -= 1
            return entry[0] >> _TICK_SHIFT, callback, entry[2]
        return None

    def peek_tick(self) -> Optional[int]:
        """Tick of the earliest live event, or ``None`` if empty."""
        heap = self.heap
        while heap and heap[0][1] is None:
            heappop(heap)
            self._cancelled -= 1
        if not heap:
            return None
        return heap[0][0] >> _TICK_SHIFT


class TickHandle:
    """Object handle (``cancel()`` / ``pending``) for events scheduled
    through :meth:`TickEngine.call_at` / :meth:`TickEngine.call_after`.
    The hot path returns bare records instead.
    """

    __slots__ = ("_queue", "_entry")

    def __init__(self, queue: SlabEventQueue, entry: Entry):
        self._queue = queue
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self._queue.cancel(self._entry)

    @property
    def pending(self) -> bool:
        """Whether the event is still scheduled."""
        return self._entry[1] is not None


class TickEngine:
    """Deterministic discrete-event engine on an integer-tick clock.

    Events at equal ticks fire in ``(priority, scheduling order)``,
    callbacks may schedule and cancel freely, and runs are reproducible
    bit-for-bit.  Times given to and reported by the public API are float
    seconds; internally everything is ticks of ``quantum`` seconds.

    Two scheduling surfaces coexist:

    * :meth:`schedule_after` / :meth:`schedule_at_tick` — the hot path;
      returns the raw event record (pass it to :meth:`cancel` if needed).
    * :meth:`call_at` / :meth:`call_after` — float-seconds convenience;
      returns a :class:`TickHandle`.
    """

    def __init__(self, start_time: float = 0.0, quantum: float = DEFAULT_QUANTUM):
        self.clock = TickClock(quantum)
        self._quantum = self.clock.quantum
        self._inv_quantum = 1.0 / self._quantum
        self._tick = self.clock.to_ticks(start_time)
        self._queue = SlabEventQueue()
        self._running = False
        self._stopped = False
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
    def pending_events(self) -> int:
        """Number of live scheduled events (O(1))."""
        return len(self._queue)

    @property
    def queue(self) -> SlabEventQueue:
        """The underlying slab queue (exposed for tests and benchmarks)."""
        return self._queue

    # ------------------------------------------------------------------
    # Scheduling — hot path (raw records)
    # ------------------------------------------------------------------
    def schedule_at_tick(
        self, tick: int, callback: Callable[..., Any], args: Tuple[Any, ...] = (), priority: int = 0
    ) -> Entry:
        """Schedule at an absolute ``tick``; returns the raw record."""
        if tick < self._tick:
            raise SimulationError(
                f"cannot schedule event in the past (now_tick={self._tick}, requested={tick})"
            )
        return self._queue.schedule(tick, callback, args, priority)

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
        queue._live += 1
        return entry

    def schedule_many(
        self,
        ticks: List[int],
        callbacks: Callable[..., Any] | Sequence[Callable[..., Any]],
        args_list: List[Tuple[Any, ...]],
        priority: int = 0,
    ) -> List[Entry]:
        """Bulk-schedule events at absolute ``ticks`` (one slab append).

        ``callbacks`` may be one shared callable or a per-event sequence;
        firing order is identical to the equivalent sequence of
        :meth:`schedule_at_tick` calls (see
        :meth:`SlabEventQueue.schedule_many`).  The session uses this to
        schedule the whole transaction trace — and the dispatch layer its
        cohort reschedules — without one heap push per record.
        """
        now = self._tick
        for tick in ticks:
            if tick < now:
                raise SimulationError(
                    f"cannot schedule event in the past "
                    f"(now_tick={now}, requested={tick})"
                )
        return self._queue.schedule_many(ticks, callbacks, args_list, priority)

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
    # Scheduling — float-seconds convenience surface (handle objects)
    # ------------------------------------------------------------------
    def call_at(
        self, time: float, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> TickHandle:
        """Schedule at absolute ``time`` seconds; returns a cancellable handle."""
        tick = self.clock.to_ticks(time)
        if tick < self._tick:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.now:.6g}, requested={time:.6g})"
            )
        return TickHandle(self._queue, self._queue.schedule(tick, callback, args, priority))

    def call_after(
        self, delay: float, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> TickHandle:
        """Schedule after ``delay`` seconds; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return TickHandle(
            self._queue,
            self._queue.schedule(
                self._tick + self.clock.to_ticks(delay), callback, args, priority
            ),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that :meth:`run` return before firing the next event."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Fire events in tick order.

        With ``until`` given, events at ``time <= until`` fire and the clock
        then advances to exactly ``until`` (quantised).  Returns the final
        simulated time in seconds.
        """
        if self._running:
            raise SimulationError("TickEngine.run() is not reentrant")
        until_tick = None if until is None else self.clock.to_ticks(until)
        if until_tick is not None and until_tick < self._tick:
            raise SimulationError(
                f"cannot run backwards (now={self.now:.6g}, until={until:.6g})"
            )
        self._running = True
        self._stopped = False
        executed = 0
        budget = math.inf if max_events is None else max_events
        queue = self._queue
        heap = queue.heap
        pop = heappop
        shift = _TICK_SHIFT
        try:
            if budget <= 0:
                pass  # nothing may fire; the clock still advances below
            elif until_tick is None:
                # Unbounded drain: pop directly (no peek) — the hot loop.
                while heap:
                    entry = pop(heap)
                    callback = entry[1]
                    if callback is None:  # cancelled corpse
                        queue._cancelled -= 1
                        continue
                    entry[1] = None  # consumed: a late cancel() must be a no-op
                    queue._live -= 1
                    self._tick = entry[0] >> shift
                    callback(*entry[2])
                    self._events_processed += 1
                    executed += 1
                    if self._stopped or executed >= budget:
                        break
            else:
                # Bounded run: peek before popping so events beyond the
                # horizon stay scheduled for a later run() call.
                while heap:
                    entry = heap[0]
                    callback = entry[1]
                    if callback is None:
                        pop(heap)
                        queue._cancelled -= 1
                        continue
                    tick = entry[0] >> shift
                    if tick > until_tick:
                        break
                    pop(heap)
                    entry[1] = None
                    queue._live -= 1
                    self._tick = tick
                    callback(*entry[2])
                    self._events_processed += 1
                    executed += 1
                    if self._stopped or executed >= budget:
                        break
            if (
                until_tick is not None
                and not self._stopped
                and until_tick > self._tick
            ):
                self._tick = until_tick
        finally:
            self._running = False
        return self.now

    def step(self) -> bool:
        """Fire exactly one live event; ``False`` if the queue is empty."""
        popped = self._queue.pop()
        if popped is None:
            return False
        tick, callback, args = popped
        self._tick = tick
        callback(*args)
        self._events_processed += 1
        return True

    def peek(self) -> Optional[float]:
        """Time (seconds) of the next live event, or ``None`` if empty."""
        tick = self._queue.peek_tick()
        if tick is None:
            return None
        return self.clock.to_seconds(tick)

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        start_delay: Optional[float] = None,
    ) -> "TickTimer":
        """Fixed-interval periodic callback (tick-exact, drift-free)."""
        return TickTimer(self, interval, callback, start_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TickEngine(now={self.now:.6g}, pending={len(self._queue)})"


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
