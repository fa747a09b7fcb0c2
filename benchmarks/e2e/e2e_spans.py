"""Span accounting for the end-to-end benchmark's traced pass.

The harness owns the clock and the wrappers; nothing under ``src/``
changes (so RL001 — no wall clock inside ``repro.engine`` — holds).  A
:class:`SpanRecorder` replaces *public* methods at class level, before
any object is built, with wrappers that open a span around each call.

A layer method can be entered millions of times in one pass, so spans are
folded into one row per name as they close instead of being kept one by
one: ``calls``, ``units`` (work items the call carried, counted at the
boundary), ``total_s`` and ``child_s`` (the part of the interval covered
by spans opened inside it).  ``self_s = total_s - child_s``; summed over
every name it equals the root spans' total, which is what the span test
pins.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecorder", "SpanRow", "Wrappers", "swap_method"]

#: Extracts the work-unit count of one call from ``(args, kwargs)``.
Units = Callable[[tuple, dict], int]


class SpanRow:
    """The folded spans of one name."""

    __slots__ = ("calls", "units", "total_s", "child_s")

    def __init__(self) -> None:
        self.calls = 0
        self.units = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        """Time inside these spans not covered by a child span."""
        return self.total_s - self.child_s


def swap_method(
    owner: type, attribute: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
) -> Tuple[type, str, Any]:
    """Replace ``owner.attribute`` by ``make(original)``; return what to
    ``setattr`` to undo it.

    Only plain methods and classmethods defined on ``owner`` itself are
    accepted: wrapping an inherited attribute through ``setattr`` would
    change where it lives, not just observe it.
    """
    installed = vars(owner).get(attribute)
    is_classmethod = isinstance(installed, classmethod)
    original = installed.__func__ if is_classmethod else installed
    if not inspect.isfunction(original):
        raise TypeError(
            f"{owner.__name__}.{attribute} is not a method defined on "
            f"{owner.__name__}; cannot wrap it"
        )
    wrapper = make(original)
    wrapper.__name__ = original.__name__
    wrapper.__qualname__ = original.__qualname__
    wrapper.__doc__ = original.__doc__
    setattr(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)
    return owner, attribute, installed


class Wrappers:
    """Class-level method replacements that can all be put back."""

    def __init__(self) -> None:
        #: ``(owner, attribute, original attribute)`` per installed wrapper.
        self._installed: List[Tuple[type, str, Any]] = []

    def unwrap_all(self) -> None:
        """Put every replaced method back (idempotent)."""
        while self._installed:
            owner, attribute, installed = self._installed.pop()
            setattr(owner, attribute, installed)


class SpanRecorder(Wrappers):
    """Opens spans around wrapped calls and folds them per name.

    ``clock`` is supplied by the harness (``time.perf_counter`` in a
    benchmark pass, a fake in the tests).
    """

    def __init__(self, clock: Callable[[], float]):
        super().__init__()
        self._clock = clock
        self.rows: Dict[str, SpanRow] = {}
        #: One child-time accumulator per open span, innermost last.
        self._open: List[float] = []

    def row(self, name: str) -> SpanRow:
        """The row for ``name`` (all zeros if no such span ever closed)."""
        found = self.rows.get(name)
        if found is None:
            found = self.rows[name] = SpanRow()
        return found

    def _close(self, row: SpanRow, start: float, units: int) -> None:
        elapsed = self._clock() - start
        open_spans = self._open
        row.child_s += open_spans.pop()
        if open_spans:
            open_spans[-1] += elapsed
        row.calls += 1
        row.units += units
        row.total_s += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the harness opens itself (stages, free functions)."""
        row = self.row(name)
        self._open.append(0.0)
        start = self._clock()
        try:
            yield
        finally:
            self._close(row, start, 0)

    def wrap(
        self, owner: type, attribute: str, name: str, units: Optional[Units] = None
    ) -> None:
        """Replace the method ``owner.attribute`` by a span wrapper."""
        row = self.row(name)
        clock = self._clock
        open_spans = self._open
        close = self._close

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                open_spans.append(0.0)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    close(row, start, units(args, kwargs) if units else 0)

            return traced

        self._installed.append(swap_method(owner, attribute, make))
