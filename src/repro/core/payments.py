"""Payments and transaction units — Spider's packet abstraction.

A *payment* is the application-level transfer (§4.1).  Spider's transport
splits payments into *transaction units*, each carrying at most MTU currency
(§4: "Each transaction unit transfers an amount of money bounded by the
maximum transaction unit").  A unit holds funds in flight on every hop it
has locked until it settles or is cancelled, whether it was source-routed
or forwarded hop by hop.

State machine::

    Payment:  PENDING ──(full value settles)──▶ COMPLETED
              PENDING ──(atomic attempt fails / deadline, sim end)──▶ FAILED
                       partial value may have settled for non-atomic
                       payments; it is tracked in ``delivered``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import PaymentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pathtable import CompiledPath

__all__ = ["Payment", "PaymentState", "TransactionUnit", "UnitState"]

_AMOUNT_EPS = 1e-9


class PaymentState(enum.Enum):
    """Lifecycle of a payment."""

    PENDING = "pending"
    COMPLETED = "completed"
    FAILED = "failed"


class UnitState(enum.Enum):
    """Lifecycle of a transaction unit."""

    INFLIGHT = "inflight"
    SETTLED = "settled"
    CANCELLED = "cancelled"


@dataclass
class Payment:
    """A transfer request plus its runtime accounting.

    Attributes
    ----------
    payment_id, source, dest, amount, arrival_time, deadline:
        From the trace.  ``deadline`` is absolute; ``None`` means end of
        simulation.
    atomic:
        All-or-nothing delivery (the baselines); Spider payments are
        non-atomic by default.
    delivered:
        Value settled end-to-end so far.
    inflight:
        Value locked in unresolved units.
    """

    payment_id: int
    source: int
    dest: int
    amount: float
    arrival_time: float
    deadline: Optional[float] = None
    atomic: bool = False
    max_fee: Optional[float] = None
    state: PaymentState = PaymentState.PENDING
    delivered: float = 0.0
    inflight: float = 0.0
    fees_paid: float = 0.0
    attempts: int = 0
    units_sent: int = 0
    completed_at: Optional[float] = None
    failed_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise PaymentError(
                f"payment {self.payment_id} has non-positive amount {self.amount!r}"
            )

    # ------------------------------------------------------------------
    @property
    def remaining(self) -> float:
        """Value not yet delivered nor in flight — what can still be sent."""
        return max(0.0, self.amount - self.delivered - self.inflight)

    @property
    def outstanding(self) -> float:
        """Value not yet delivered (the SRPT scheduling key)."""
        return max(0.0, self.amount - self.delivered)

    @property
    def is_complete(self) -> bool:
        """Whether the full amount has settled."""
        return self.state is PaymentState.COMPLETED

    @property
    def is_terminal(self) -> bool:
        """Whether no further routing work will happen for this payment."""
        return self.state is not PaymentState.PENDING

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed at time ``now``."""
        return self.deadline is not None and now > self.deadline + _AMOUNT_EPS

    def fee_budget_allows(self, fee: float) -> bool:
        """Whether paying ``fee`` more keeps total fees within ``max_fee``.

        §4.1: applications specify "the maximum acceptable routing fee";
        ``None`` means unlimited.
        """
        if self.max_fee is None:
            return True
        return self.fees_paid + fee <= self.max_fee + _AMOUNT_EPS

    # ------------------------------------------------------------------
    # Runtime accounting (called by the runtime, not by schemes)
    # ------------------------------------------------------------------
    def register_inflight(self, value: float) -> None:
        """Account for a newly locked unit."""
        if value <= 0:
            raise PaymentError(f"in-flight value must be positive, got {value!r}")
        if value > self.remaining + 1e-6:
            raise PaymentError(
                f"payment {self.payment_id}: locking {value:.6g} exceeds "
                f"remaining {self.remaining:.6g}"
            )
        self.inflight += value
        self.units_sent += 1

    def register_settled(self, value: float, now: float) -> None:
        """A unit settled: move its value from in-flight to delivered."""
        if value > self.inflight + 1e-6:
            raise PaymentError(
                f"payment {self.payment_id}: settling {value:.6g} exceeds "
                f"inflight {self.inflight:.6g}"
            )
        self.inflight = max(0.0, self.inflight - value)
        self.delivered += value
        if self.delivered >= self.amount - 1e-6 and self.state is PaymentState.PENDING:
            self.state = PaymentState.COMPLETED
            self.completed_at = now

    def register_cancelled(self, value: float) -> None:
        """A unit was refunded: release its in-flight value."""
        if value > self.inflight + 1e-6:
            raise PaymentError(
                f"payment {self.payment_id}: cancelling {value:.6g} exceeds "
                f"inflight {self.inflight:.6g}"
            )
        self.inflight = max(0.0, self.inflight - value)

    def mark_failed(self, now: float) -> None:
        """Terminal failure (atomic miss, deadline, or simulation end)."""
        if self.state is PaymentState.PENDING:
            self.state = PaymentState.FAILED
            self.failed_at = now


class TransactionUnit:
    """One MTU-bounded slice of a payment, from its lock to its resolution.

    ``amount`` is the value delivered to the destination and ``fee`` the
    extra value the sender committed for the intermediaries (§2).
    ``cpath`` is the :class:`~repro.engine.pathtable.CompiledPath` the
    unit holds funds on and ``locked[i]`` the amount hop ``i`` actually
    locked, so one record carries everything a settle or refund writes.
    The hop-by-hop and backpressure transports extend it with their
    forwarding state (:class:`~repro.engine.transport.HopUnit`,
    :class:`~repro.engine.transport.BackpressureUnit`) and hand the
    same object to the session when it resolves.  ``state`` is the one
    guard against resolving a unit twice.
    """

    __slots__ = ("payment", "amount", "cpath", "locked", "fee", "state")

    def __init__(
        self,
        payment: Payment,
        amount: float,
        cpath: "CompiledPath",
        locked: List[float],
        fee: float = 0.0,
    ):
        self.payment = payment
        self.amount = amount
        self.cpath = cpath
        self.locked = locked
        self.fee = fee
        self.state = UnitState.INFLIGHT

    @property
    def path(self) -> Tuple[int, ...]:
        """The node tuple of the unit's path (built from its compiled path
        on each call)."""
        return self.cpath.nodes

    def mark_settled(self) -> None:
        """Record end-to-end settlement."""
        if self.state is not UnitState.INFLIGHT:
            raise self._already_resolved()
        self.state = UnitState.SETTLED

    def mark_cancelled(self) -> None:
        """Record cancellation/refund."""
        if self.state is not UnitState.INFLIGHT:
            raise self._already_resolved()
        self.state = UnitState.CANCELLED

    def _already_resolved(self) -> PaymentError:
        return PaymentError(
            f"unit of payment {self.payment.payment_id} already resolved "
            f"({self.state.value})"
        )
