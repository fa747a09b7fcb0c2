"""Payment-channel network substrate: channels, HTLCs, nodes, network,
on-chain settlement, onion routing."""

from repro.network.blockchain import (
    Blockchain,
    BlockchainTransaction,
    ChannelContract,
    ContractState,
    TxKind,
)
from repro.network.channel import PaymentChannel
from repro.network.faults import (
    ChannelClosure,
    FaultSchedule,
    NodeOutage,
    random_churn_schedule,
)
from repro.network.htlc import HashLock, Htlc, HtlcState
from repro.network.network import PaymentNetwork, canonical_edge
from repro.network.node import Node, NodeRole
from repro.network.onion import (
    MAX_HOPS,
    OnionError,
    OnionPacket,
    build_onion,
    hop_key,
    peel_onion,
)

__all__ = [
    "Blockchain",
    "BlockchainTransaction",
    "ChannelClosure",
    "ChannelContract",
    "ContractState",
    "FaultSchedule",
    "HashLock",
    "Htlc",
    "HtlcState",
    "MAX_HOPS",
    "Node",
    "NodeOutage",
    "NodeRole",
    "OnionError",
    "OnionPacket",
    "PaymentChannel",
    "PaymentNetwork",
    "TxKind",
    "build_onion",
    "canonical_edge",
    "hop_key",
    "peel_onion",
    "random_churn_schedule",
]
