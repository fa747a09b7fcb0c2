"""Exception hierarchy shared across the library.

All library-specific failures derive from :class:`ReproError` so callers can
distinguish domain failures (a path ran out of funds) from programming
errors (a malformed path).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "TopologyError",
    "NoPathError",
    "InsufficientFundsError",
    "ChannelError",
    "PaymentError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """An experiment or component was configured inconsistently."""


class TopologyError(ReproError):
    """A topology request cannot be satisfied (bad size, missing node...)."""


class NoPathError(ReproError):
    """No usable path exists between a source and destination."""


class InsufficientFundsError(ReproError):
    """A channel lacks spendable balance for a requested lock."""


class ChannelError(ReproError):
    """A channel operation violated the channel state machine."""


class PaymentError(ReproError):
    """A payment-level operation was invalid (e.g. double completion)."""


class SimulationError(ReproError, RuntimeError):
    """The engine was used inconsistently.

    Examples include scheduling an event in the simulated past, running a
    finished session again, or finishing a run with due work still queued.
    """
