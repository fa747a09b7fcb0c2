"""Spider core: payments, scheduling, Spider schemes."""

from repro.core.amp import AmpWaterfillingScheme, waterfill_allocation
from repro.core.congestion import TokenBucket
from repro.core.lp_routing import SpiderLPScheme
from repro.core.payments import Payment, PaymentState, TransactionUnit, UnitState
from repro.core.primal_dual_routing import SpiderPrimalDualScheme
from repro.core.queueing import SpiderQueueingScheme
from repro.core.scheduling import (
    PendingHeap,
    SCHEDULING_POLICIES,
    get_policy,
    order_payments,
)
from repro.core.waterfilling import WaterfillingScheme
from repro.core.window_control import PathWindow, WindowedSpiderScheme

__all__ = [
    "AmpWaterfillingScheme",
    "PathWindow",
    "Payment",
    "PaymentState",
    "PendingHeap",
    "SCHEDULING_POLICIES",
    "SpiderLPScheme",
    "SpiderPrimalDualScheme",
    "SpiderQueueingScheme",
    "TokenBucket",
    "TransactionUnit",
    "UnitState",
    "WaterfillingScheme",
    "WindowedSpiderScheme",
    "get_policy",
    "order_payments",
    "waterfill_allocation",
]
