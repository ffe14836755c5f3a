"""Message taxonomy and cost accounting for the overlay simulator.

The paper's efficiency claims are stated in network cost — messages sent and
routing hops taken — not wall-clock time.  The simulator therefore threads a
single :class:`MessageStats` ledger through every peer-to-peer interaction.
Estimators and baselines never count their own cost; they act through the
network layer and the ledger observes everything, which keeps the cost
accounting honest across methods.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["MessageType", "MessageStats", "CostSnapshot", "HOP_MESSAGE_TYPES"]


class MessageType(str, Enum):
    """Every distinct peer-to-peer message the simulator can send."""

    # Routing / overlay maintenance
    LOOKUP_HOP = "lookup_hop"            # one hop of a finger-routed lookup
    SUCCESSOR_WALK = "successor_walk"    # one hop of a successor traversal
    STABILIZE = "stabilize"              # stabilize round-trip
    NOTIFY = "notify"                    # predecessor notification
    FIX_FINGER = "fix_finger"            # finger-repair lookup trigger
    JOIN = "join"                        # join announcement
    LEAVE = "leave"                      # graceful leave announcement
    DATA_TRANSFER = "data_transfer"      # bulk handoff of items at join/leave

    # Density-estimation traffic
    PROBE_REQUEST = "probe_request"      # ask a peer for its density summary
    PROBE_REPLY = "probe_reply"          # (segment, count, synopsis) reply
    PREFIX_REQUEST = "prefix_request"    # ask for cumulative count info
    PREFIX_REPLY = "prefix_reply"
    RANK_STEP = "rank_step"              # one step of rank-based routing
    GOSSIP_PUSH = "gossip_push"          # one push-sum exchange
    WALK_STEP = "walk_step"              # one step of a random walk
    SAMPLE_FETCH = "sample_fetch"        # fetch one data item from a peer


@dataclass
class CostSnapshot:
    """Immutable view of cumulative costs, used to measure deltas."""

    messages: int
    hops: int
    by_type: dict[str, int]
    payload: float = 0.0

    def delta(self, later: "CostSnapshot") -> "CostSnapshot":
        """Costs accrued between this snapshot and a ``later`` one."""
        by_type = {
            key: later.by_type.get(key, 0) - self.by_type.get(key, 0)
            for key in set(self.by_type) | set(later.by_type)
        }
        return CostSnapshot(
            messages=later.messages - self.messages,
            hops=later.hops - self.hops,
            by_type={k: v for k, v in by_type.items() if v},
            payload=later.payload - self.payload,
        )


#: Message types that count as routing *hops* in the ledger.  Public so
#: that every accounting path — the synchronous ledger and the event
#: engine's per-delivery records — shares one definition of "hop".
HOP_MESSAGE_TYPES = frozenset(
    {
        MessageType.LOOKUP_HOP,
        MessageType.SUCCESSOR_WALK,
        MessageType.RANK_STEP,
        MessageType.WALK_STEP,
    }
)


@dataclass
class MessageStats:
    """Mutable ledger of all simulated network traffic.

    ``hops`` counts only routing steps (``LOOKUP_HOP``, ``SUCCESSOR_WALK``,
    ``RANK_STEP``, ``WALK_STEP``); ``messages`` counts every message of any
    type.  Both are monotone; use :meth:`snapshot` / ``CostSnapshot.delta``
    to attribute cost to an individual operation.
    """

    _HOP_TYPES = HOP_MESSAGE_TYPES

    counts: Counter = field(default_factory=Counter)
    payloads: Counter = field(default_factory=Counter)
    # Running totals, maintained by record() so the messages/hops properties
    # (read twice per estimate via snapshot deltas) stay O(1) instead of
    # re-summing the counters.
    _messages: int = 0
    _hops: int = 0
    _payload: float = 0.0

    def record(self, message_type: MessageType, count: int = 1, payload: float = 0.0) -> None:
        """Record ``count`` messages of the given type.

        ``payload`` is the total application payload carried (abstract
        units: one scalar value / bucket count / counter = 1 unit).
        Routing and control messages carry none; probe replies carry their
        synopsis, bulk transfers their items.  Passing ``count > 1`` is the
        bulk path: one ledger update stands for ``count`` identical
        messages, with totals exactly as if recorded one by one.
        """
        if count < 0:
            raise ValueError(f"negative message count: {count}")
        if payload < 0:
            raise ValueError(f"negative payload: {payload}")
        self.counts[message_type] += count
        self._messages += count
        if message_type in self._HOP_TYPES:
            self._hops += count
        if payload:
            self.payloads[message_type] += payload
            self._payload += payload

    @property
    def messages(self) -> int:
        """Total messages of all types."""
        return self._messages

    @property
    def hops(self) -> int:
        """Total routing hops."""
        return self._hops

    def count_of(self, message_type: MessageType) -> int:
        """Messages recorded for one type."""
        return self.counts[message_type]

    @property
    def payload(self) -> float:
        """Total application payload carried, in abstract scalar units."""
        return float(self._payload)

    def payload_of(self, message_type: MessageType) -> float:
        """Payload carried by one message type."""
        return float(self.payloads[message_type])

    def snapshot(self) -> CostSnapshot:
        """Freeze current totals for later delta computation."""
        return CostSnapshot(
            messages=self.messages,
            hops=self.hops,
            by_type={t.value: c for t, c in self.counts.items() if c},
            payload=self.payload,
        )

    def reset(self) -> None:
        """Zero the ledger (e.g. after network construction)."""
        self.counts.clear()
        self.payloads.clear()
        self._messages = 0
        self._hops = 0
        self._payload = 0.0
