"""Host-speed correction for the timed passes.

The sizing host is a 2-vCPU VM whose neighbours slow identical work by
1.05x-1.7x for minutes at a time (CPU time inflates with wall time, and
there are no instruction counters): eight back-to-back repeats of one
deterministic pass took 11.0-16.0 s (``isp-waterfilling``) and
13.2-18.5 s (``ripple-huge-cold``).  A median over the two or three passes
a run can afford does not remove that, so the timed passes measure the
host while they measure the program.

Every ``GAP_S`` of a pass — at stage boundaries and on entry to a few
public methods that are called all the time — the harness runs a fixed
reference loop (~0.4 ms) and divides the stretch of program time since the
previous mark by the loop's duration *at that moment*.  A stage's cost is
then a number of reference loops, which does not care how fast the host
was running; times ``REF_LOOP_S``, the loop's duration on the quiet sizing
VM, it is seconds again — on that reference host.

The loop is half arithmetic that lives in L1 and half a pointer chase
through ~40 MB of small objects in shuffled order, because the slow-downs
are contention for cache and memory and the program is a mix of both
kinds of work: against the repeats above, the arithmetic half alone
leaves 14 % / 5 % quartile spread (it under-corrects the event loop), the
chase alone 4 % / 10 % (it over-corrects NumPy-bound discovery), the two
together 7 % / 4 % where the raw walls spread 28 % / 23 %.

The loop's own time is excluded from every stretch.  The correction cannot
hide a regression: the reference loop does not run the program.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Tuple

from e2e_spans import Wrappers, swap_method

__all__ = ["GAP_S", "HostSpeed", "MARKS", "REF_LOOP_S", "ReferenceLoop"]

#: Program time between two marks (when a marked method is entered).
GAP_S = 0.025

#: Seconds one reference loop takes on the quiet sizing VM (each half
#: ~185 us there).  Scales reference loops back to seconds; being a
#: constant, it adds no noise of its own.
REF_LOOP_S = 370e-6

#: ``(module, class, method)``: public methods entered often enough to
#: carry marks through every long stage of every workload.
MARKS = [
    ("repro.workload.generator", "TransactionRecord", "__init__"),  # trace generation
    ("repro.network.network", "PaymentNetwork", "add_channel"),  # network build
    ("repro.engine.pathservice", "CsrDisjointProvider", "paths"),  # cold discovery
    ("repro.engine.pathtable", "PathTable", "probe_handle"),  # priming after a warm load
    ("repro.engine.dispatch", "DispatchPlan", "attempt_cohort"),  # the run loop
]


class ReferenceLoop:
    """A fixed piece of work, half compute-bound and half memory-bound;
    calling it returns its duration."""

    ARITHMETIC = 3000
    OBJECTS = 200_000
    HOPS = 400

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._table = [(i, float(i), str(i)) for i in range(self.OBJECTS)]
        self._order = list(range(self.OBJECTS))
        random.Random(0).shuffle(self._order)
        self._at = 0

    def __call__(self) -> float:
        start = self._clock()
        total = 0
        for i in range(self.ARITHMETIC):
            total += i * i % 7
        table = self._table
        at = self._at
        for slot in self._order[at:at + self.HOPS]:
            total += table[slot][0]
        # Move on, so the next call finds its objects as cold as this one did.
        self._at = (at + self.HOPS) % (self.OBJECTS - self.HOPS)
        return self._clock() - start


class HostSpeed(Wrappers):
    """Accumulates program time both raw and in reference loops."""

    def __init__(
        self, clock: Callable[[], float], loop: Optional[Callable[[], float]] = None
    ):
        super().__init__()
        self._clock = clock
        self._loop = loop if loop is not None else ReferenceLoop(clock)
        self._last = clock()
        self._raw_s = 0.0
        self._loops = 0.0
        #: Seconds spent inside the reference loop so far (a span clock
        #: subtracts this, so no span is charged for the harness's work).
        self.loop_time_s = 0.0

    def mark(self) -> None:
        """Close the stretch since the previous mark at the host's
        current speed."""
        stretch = self._clock() - self._last
        loop_s = self._loop()
        self._raw_s += stretch
        self._loops += stretch / loop_s
        self.loop_time_s += loop_s
        self._last = self._clock()

    def take(self) -> Tuple[float, float]:
        """``(raw seconds, reference loops)`` accumulated since the last
        ``take``."""
        taken = (self._raw_s, self._loops)
        self._raw_s = self._loops = 0.0
        return taken

    def watch(self, owner: type, attribute: str) -> None:
        """Mark on entry to ``owner.attribute`` once ``GAP_S`` has passed."""
        clock = self._clock

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def marked(*args: Any, **kwargs: Any) -> Any:
                if clock() - self._last >= GAP_S:
                    self.mark()
                return original(*args, **kwargs)

            return marked

        self._installed.append(swap_method(owner, attribute, make))
