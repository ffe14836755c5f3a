"""Ring-based P2P overlay substrate.

Everything the estimators run on: identifier arithmetic, hashing/placement,
peer nodes and their local stores, the network simulator with message
accounting, Chord routing and protocol dynamics, and churn processes.
"""

from repro.ring.churn import ChurnConfig, ChurnProcess, ChurnRoundReport
from repro.ring.faults import (
    FAULT_PROFILES,
    FaultPlane,
    FaultRoundReport,
    RetryPolicy,
    plane_from_profile,
    validate_probability,
)
from repro.ring.hashing import OrderPreservingHash
from repro.ring.identifier import IdentifierSpace, RingInterval
from repro.ring.messages import CostSnapshot, MessageStats, MessageType
from repro.ring.network import NetworkError, RingNetwork
from repro.ring.node import PeerNode
from repro.ring.replication import RecoveryReport, ReplicationManager
from repro.ring.serialization import load_network, network_from_dict, network_to_dict, save_network
from repro.ring.routing import (
    RouteOutcome,
    RouteResult,
    RoutingError,
    route_to_key,
    route_to_value,
    route_with_policy,
    successor_walk,
)
from repro.ring.storage import LocalStore

__all__ = [
    "ChurnConfig",
    "ChurnProcess",
    "ChurnRoundReport",
    "CostSnapshot",
    "FAULT_PROFILES",
    "FaultPlane",
    "FaultRoundReport",
    "IdentifierSpace",
    "LocalStore",
    "MessageStats",
    "MessageType",
    "NetworkError",
    "OrderPreservingHash",
    "PeerNode",
    "RecoveryReport",
    "ReplicationManager",
    "RetryPolicy",
    "RingInterval",
    "RingNetwork",
    "RouteOutcome",
    "RouteResult",
    "RoutingError",
    "load_network",
    "network_from_dict",
    "network_to_dict",
    "plane_from_profile",
    "route_to_key",
    "route_to_value",
    "route_with_policy",
    "save_network",
    "successor_walk",
    "validate_probability",
]
