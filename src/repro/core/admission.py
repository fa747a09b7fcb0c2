"""Admission control (§7 future work).

§7: *"routers can decide payment priorities or reject some extremely large
transactions that are unlikely to complete within the deadline"*.

:class:`AdmissionControlScheme` wraps any inner routing scheme and rejects
payments at arrival when the amount exceeds ``admit_fraction`` of the
pair's currently probed multipath capacity — the cheap router-side estimate
of "unlikely to complete".  Rejected payments fail immediately without
locking any funds, so the capacity they would have wasted (held in-flight
only to expire) stays available for feasible payments.

The ablation bench shows the trade-off: success *ratio* of admitted
payments rises, total success *volume* can dip slightly because some
rejected payments would have partially delivered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.routing.base import RoutingScheme
from repro.routing.registry import make_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["AdmissionControlScheme"]


class AdmissionControlScheme(RoutingScheme):
    """Reject-then-delegate wrapper around another scheme.

    Parameters
    ----------
    inner:
        Inner scheme name (resolved through the registry) or an instance.
    admit_fraction:
        A payment is admitted iff ``amount <= admit_fraction × Σ path
        bottlenecks`` at arrival.  Values above 1 admit payments that can
        only complete via queueing and retries.
    num_paths:
        Path budget for the capacity probe (matches the inner scheme's
        default of 4).
    """

    atomic = False

    def __init__(
        self,
        inner: object = "spider-waterfilling",
        admit_fraction: float = 1.0,
        num_paths: int = 4,
        **inner_kwargs,
    ):
        if admit_fraction <= 0:
            raise ValueError(f"admit_fraction must be positive, got {admit_fraction}")
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        if isinstance(inner, str):
            self.inner: RoutingScheme = make_scheme(inner, **inner_kwargs)
        else:
            self.inner = inner  # type: ignore[assignment]
        self.admit_fraction = admit_fraction
        self.num_paths = num_paths
        self.name = f"admission({self.inner.name})"
        self.atomic = self.inner.atomic
        self.rejected = 0

    def prepare(self, runtime: "SimulationSession") -> None:
        self.rejected = 0
        self.inner.prepare(runtime)

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        if payment.attempts <= 1:  # admission decision happens once
            # The pair's handle, shared with an inner scheme probing the
            # same k; a disconnected pair (no handle) has no capacity.
            handle = runtime.path_handle(payment.source, payment.dest, self.num_paths)
            capacity = (
                0.0
                if handle is None
                else sum(runtime.network.path_table.bottleneck_many(handle))
            )
            if payment.amount > self.admit_fraction * capacity:
                self.rejected += 1
                runtime.fail_payment(payment)
                return
        self.inner.attempt(payment, runtime)
