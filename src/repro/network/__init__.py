"""Payment-channel network substrate: channel views over the flat state
store, nodes, the network's path operations, and fault injection."""

from repro.network.channel import PaymentChannel
from repro.network.faults import (
    ChannelClosure,
    FaultSchedule,
    NodeOutage,
    random_churn_schedule,
)
from repro.network.network import PaymentNetwork, canonical_edge
from repro.network.node import Node, NodeRole

__all__ = [
    "ChannelClosure",
    "FaultSchedule",
    "Node",
    "NodeOutage",
    "NodeRole",
    "PaymentChannel",
    "PaymentNetwork",
    "canonical_edge",
    "random_churn_schedule",
]
