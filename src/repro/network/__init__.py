"""Payment-channel network substrate: channel views over the flat state
store, the network's path operations, and fault injection."""

from repro.network.channel import PaymentChannel
from repro.network.faults import (
    ChannelClosure,
    FaultSchedule,
    NodeOutage,
    random_churn_schedule,
)
from repro.network.network import PaymentNetwork, canonical_edge

__all__ = [
    "ChannelClosure",
    "FaultSchedule",
    "NodeOutage",
    "PaymentChannel",
    "PaymentNetwork",
    "canonical_edge",
    "random_churn_schedule",
]
