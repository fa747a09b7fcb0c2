"""Rule registry for :mod:`repro.devtools.lint`.

A rule is a class with an ``id`` (``RL###``), a one-line ``summary`` and
a ``check(index)`` generator yielding :class:`~repro.devtools.lint.report.Finding`
records.  Registration happens at import time via the :func:`rule`
decorator; :func:`all_rules` returns one instance per registered rule in
id order, so the runner, ``--select`` filtering and ``--list-rules`` all
read from the same table.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Type

from repro.devtools.lint.index import LintIndex
from repro.devtools.lint.report import Finding

__all__ = ["LintRule", "rule", "all_rules", "get_rule", "rule_ids"]

_RULE_ID_RE = re.compile(r"^RL\d{3}$")


class LintRule(Protocol):
    """Structural interface every registered rule satisfies."""

    id: str
    summary: str

    def check(self, index: LintIndex) -> Iterator[Finding]:
        """Yield one finding per violation over the shared index."""
        ...  # pragma: no cover - protocol stub


_REGISTRY: Dict[str, Type] = {}


def rule(cls: Type) -> Type:
    """Class decorator registering a lint rule under its ``id``."""
    rule_id = getattr(cls, "id", None)
    if not isinstance(rule_id, str) or not _RULE_ID_RE.match(rule_id):
        raise ValueError(
            f"lint rule {cls.__name__} must define an id matching RL###, "
            f"got {rule_id!r}"
        )
    if rule_id in _REGISTRY:
        raise ValueError(
            f"duplicate lint rule id {rule_id}: {cls.__name__} collides "
            f"with {_REGISTRY[rule_id].__name__}"
        )
    if not isinstance(getattr(cls, "summary", None), str):
        raise ValueError(f"lint rule {cls.__name__} must define a summary string")
    _REGISTRY[rule_id] = cls
    return cls


def _ensure_loaded() -> None:
    """Import the built-in rule modules exactly once."""
    from repro.devtools.lint import rules  # noqa: F401  (import-time registration)


def rule_ids() -> List[str]:
    """Every registered rule id, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> LintRule:
    """Instantiate one registered rule by id (raises ``KeyError``)."""
    _ensure_loaded()
    instance: LintRule = _REGISTRY[rule_id]()
    return instance


def all_rules(select: Optional[Sequence[str]] = None) -> List[LintRule]:
    """One instance per registered rule, id-sorted.

    ``select`` restricts to the given ids; unknown ids raise ``KeyError``
    so a typo in ``--select`` cannot silently lint nothing.
    """
    _ensure_loaded()
    if select is None:
        chosen = sorted(_REGISTRY)
    else:
        chosen = []
        for rule_id in select:
            if rule_id not in _REGISTRY:
                raise KeyError(
                    f"unknown lint rule {rule_id!r}; available: {sorted(_REGISTRY)}"
                )
            chosen.append(rule_id)
        chosen = sorted(set(chosen))
    return [_REGISTRY[rule_id]() for rule_id in chosen]
