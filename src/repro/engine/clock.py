"""Integer-tick simulation clock.

Float seconds are fine for ordering events but awkward for determinism
(accumulated ``now + delay`` round-off) and slow to pack into the slab
queue's integer keys.  The engine therefore runs on an integer tick
counter with a fixed time quantum; float seconds exist only at the API
boundary.

A quantum of 1 µs (the default) represents every time the reproduction
cares about exactly enough: arrival processes at hundreds of events per
second, confirmation delays of 0.5 s, and sub-millisecond hop delays all
quantise with relative error below 1e-9 over the paper's 200 s horizons.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

__all__ = ["TickClock", "DEFAULT_QUANTUM"]

#: Seconds represented by one tick unless overridden.
DEFAULT_QUANTUM = 1e-6


class TickClock:
    """Converts between float seconds and integer ticks.

    Parameters
    ----------
    quantum:
        Seconds per tick.  Must be positive and finite.
    """

    __slots__ = ("quantum", "_inv_quantum")

    def __init__(self, quantum: float = DEFAULT_QUANTUM):
        if not (quantum > 0 and math.isfinite(quantum)):
            raise ConfigError(f"quantum must be positive and finite, got {quantum!r}")
        self.quantum = float(quantum)
        self._inv_quantum = 1.0 / self.quantum

    def to_ticks(self, seconds: float) -> int:
        """Nearest tick for ``seconds`` (round-half-to-even, like floats)."""
        if not math.isfinite(seconds):
            raise ConfigError(f"cannot quantise non-finite time {seconds!r}")
        return round(seconds * self._inv_quantum)

    def to_ticks_many(self, seconds: np.ndarray) -> np.ndarray:
        """:meth:`to_ticks` over an array, as ``int64`` ticks.

        ``np.rint`` rounds half to even like ``round``, on the same float
        product, so every tick equals its scalar twin.
        """
        seconds = np.asarray(seconds, dtype=np.float64)
        scaled = seconds * self._inv_quantum
        bad = np.flatnonzero(~(np.abs(scaled) < 2.0**63))
        if bad.size:
            time = seconds.item(bad[0])
            if not math.isfinite(time):
                raise ConfigError(f"cannot quantise non-finite time {time!r}")
            raise ConfigError(f"time {time!r} is beyond the tick range")
        return np.rint(scaled).astype(np.int64)

    def to_seconds(self, ticks: int) -> float:
        """Float seconds represented by ``ticks``."""
        return ticks * self.quantum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TickClock(quantum={self.quantum:g})"
