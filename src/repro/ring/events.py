"""Deterministic discrete-event simulation engine for the ring overlay.

The synchronous simulator accounts cost in messages and hops — the metric
the paper's efficiency claims are stated in — but has no notion of *when*
anything happens.  Queueing at hot peers, hop-latency distributions, and
honest fault timing all need a simulated clock.  This module provides it:

* :class:`EventEngine` — a single simulated clock and a stable-ordered
  event queue.  The queue is a binary heap keyed on ``(time, seq)`` where
  ``seq`` is a monotone insertion counter, so ties break in insertion
  order — **never** by wall clock, hash order, or object identity.  That
  tie-breaking contract is what makes a run a pure function of the
  schedule: the same seed and the same scheduling calls replay the same
  event sequence byte for byte (see :meth:`EventEngine.trace_bytes`).
* Event kinds for message delivery (routing hops and gossip exchanges)
  and for scheduled callbacks.  Churn and fault rounds stay on their
  synchronous round counters (``ChurnProcess.run_round``,
  ``FaultPlane.advance``); nothing drives them from this clock.
* :class:`LatencyModel` / :class:`ServiceModel` — per-message delay and a
  single-server FIFO queue per peer.  With the default
  :attr:`LatencyModel.IMMEDIATE` and no service model, deliveries fire in
  scheduling order at the current time, which reproduces the synchronous
  call order exactly: driving lookups through :func:`schedule_lookup` in
  immediate mode yields the same owners and the same
  :class:`~repro.ring.messages.MessageStats` ledger as calling
  :func:`~repro.ring.routing.route_to_key` directly — both consume the
  one step generator :func:`~repro.ring.routing.iter_route_steps`.
  On a lossy network each lost send is delivered like a timed-out probe:
  the sender waits one delivery, then retransmits.  The steps draw
  delivery outcomes from the network RNG as they are consumed, so one
  lookup in immediate mode draws exactly as the synchronous router does,
  and concurrent lookups interleave their draws in (deterministic)
  event order.

Determinism contract: the engine draws latency jitter from its *own*
seeded generator, never from the network's, and nothing in this module
reads the wall clock (repro-lint RNG002 enforces the latter).  Simulated
time is ``float`` arithmetic on scheduled offsets only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, ClassVar, Optional

import numpy as np

from repro.ring.messages import MessageType
from repro.ring.routing import iter_route_steps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ring.network import RingNetwork
    from repro.ring.node import PeerNode

__all__ = [
    "EventKind",
    "Event",
    "LatencyModel",
    "ServiceModel",
    "EventEngine",
    "LookupTask",
    "schedule_lookup",
    "schedule_gossip_push",
]


class EventKind(str, Enum):
    """Every kind of event the engine can carry."""

    MESSAGE = "message"          # one routing hop (lookup traffic)
    GOSSIP = "gossip"            # one push-sum / gossip exchange
    TIMER = "timer"              # generic scheduled callback (lookup kickoffs)


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence: where in simulated time, what, and whom.

    ``seq`` is the engine-wide insertion counter; ``(time, seq)`` is the
    total order events fire in.  ``src``/``dst`` are peer identifiers for
    message-like events (``-1`` when not applicable) and ``tag`` is a
    caller-chosen small integer (lookup id, round number) carried into the
    trace.
    """

    time: float
    seq: int
    kind: EventKind
    src: int = -1
    dst: int = -1
    tag: int = 0


@dataclass(frozen=True)
class LatencyModel:
    """Per-message delivery delay: ``base`` plus uniform ``jitter``.

    ``sample`` draws from the *engine's* generator; with ``jitter=0`` no
    draw is made at all, so a jitter-free model consumes no randomness.
    """

    base: float = 1.0
    jitter: float = 0.0

    #: Zero-delay model: deliveries fire at the current simulated time in
    #: scheduling order, reproducing the synchronous call order exactly.
    IMMEDIATE: ClassVar["LatencyModel"]

    def __post_init__(self) -> None:
        if self.base < 0.0:
            raise ValueError(f"base latency must be >= 0, got {self.base}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def sample(self, rng: np.random.Generator) -> float:
        """One delivery delay (deterministic given the generator state)."""
        if self.jitter <= 0.0:
            return self.base
        return self.base + self.jitter * float(rng.random())


LatencyModel.IMMEDIATE = LatencyModel(base=0.0, jitter=0.0)


@dataclass(frozen=True)
class ServiceModel:
    """Single-server FIFO processing at each destination peer.

    A delivered message waits until the destination is free, then takes
    ``service_time`` to process; the engine tracks per-peer backlog and
    the maximum queue depth observed anywhere — the hot-peer congestion
    metric the F19 experiment and the E1 bench report.
    """

    service_time: float = 0.0

    def __post_init__(self) -> None:
        if self.service_time < 0.0:
            raise ValueError(f"service_time must be >= 0, got {self.service_time}")


class EventEngine:
    """A deterministic discrete-event scheduler over one ring network.

    Parameters
    ----------
    network:
        The network the events act on (object-backed or compact).
    seed:
        Seeds the engine's own generator (latency jitter).  Never draws
        from the network's generator, so engine-driven runs leave the
        network RNG stream exactly where synchronous code would.
    latency / service:
        Delivery-delay and per-peer queueing models for
        :meth:`deliver`-routed messages.  The defaults (immediate, no
        queueing) reproduce synchronous behaviour.
    record_trace:
        Keep every fired event in :attr:`trace` for the byte-identity
        determinism checks (off by default: traces grow with event count).
    """

    def __init__(
        self,
        network: "RingNetwork",
        *,
        seed: int = 0,
        latency: LatencyModel = LatencyModel.IMMEDIATE,
        service: Optional[ServiceModel] = None,
        record_trace: bool = False,
    ) -> None:
        self.network = network
        self.rng = np.random.default_rng(seed)
        self.latency = latency
        self.service = service
        self.record_trace = record_trace
        #: Current simulated time (advances monotonically in :meth:`run`).
        self.now = 0.0
        #: Every fired event, in fire order (only when ``record_trace``).
        self.trace: list[Event] = []
        #: Total events fired over the engine's lifetime.
        self.events_processed = 0
        #: Deepest destination backlog observed (service model only).
        self.max_queue_depth = 0
        #: Peer identifier holding that deepest backlog (-1 = none).
        self.hot_peer = -1
        self._heap: list[tuple[float, int, Event, Optional[Callable[[], None]]]] = []
        self._seq = 0
        self._busy_until: dict[int, float] = {}
        self._backlog: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        kind: EventKind,
        action: Optional[Callable[[], None]] = None,
        *,
        src: int = -1,
        dst: int = -1,
        tag: int = 0,
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` simulated units from now.

        Ties at the same fire time break by insertion order (the monotone
        ``seq``) — the queue's stability contract.
        """
        if delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        event = Event(
            time=self.now + delay, seq=self._seq, kind=kind, src=src, dst=dst, tag=tag
        )
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event, action))
        return event

    def deliver(
        self,
        src: int,
        dst: int,
        kind: EventKind,
        action: Optional[Callable[[], None]] = None,
        *,
        tag: int = 0,
        extra_delay: float = 0.0,
    ) -> Event:
        """Schedule one message delivery from ``src`` to ``dst``.

        The delay is ``extra_delay`` plus one latency sample.  Under a
        service model the message then queues at ``dst``: it is processed
        ``service_time`` after the later of its arrival and the
        destination becoming free, and the destination's backlog at send
        time feeds the hot-peer queue-depth statistic.
        """
        delay = extra_delay + self.latency.sample(self.rng)
        if self.service is None:
            return self.schedule(delay, kind, action, src=src, dst=dst, tag=tag)
        arrival = self.now + delay
        backlog = self._backlog.get(dst, 0) + 1
        self._backlog[dst] = backlog
        if backlog > self.max_queue_depth:
            self.max_queue_depth = backlog
            self.hot_peer = dst
        start = max(arrival, self._busy_until.get(dst, 0.0))
        completion = start + self.service.service_time
        self._busy_until[dst] = completion

        def processed() -> None:
            self._backlog[dst] -= 1
            if action is not None:
                action()

        return self.schedule(completion - self.now, kind, processed, src=src, dst=dst, tag=tag)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Events scheduled but not yet fired."""
        return len(self._heap)

    def step(self) -> Optional[Event]:
        """Fire the single next event; ``None`` when the queue is empty."""
        if not self._heap:
            return None
        fire_time, _seq, event, action = heapq.heappop(self._heap)
        self.now = fire_time
        if self.record_trace:
            self.trace.append(event)
        self.events_processed += 1
        if action is not None:
            action()
        return event

    def run(
        self, *, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Fire events in ``(time, seq)`` order; returns how many fired.

        ``until`` stops before the first event strictly past that time
        (the clock never advances beyond it); ``max_events`` bounds the
        count.  With neither, runs until the queue drains.
        """
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                break
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
            fired += 1
        return fired

    def trace_bytes(self) -> bytes:
        """The fired-event trace in canonical bytes.

        One line per event — ``seq|time|kind|src|dst|tag`` with the time
        rendered by ``repr`` (shortest round-trip form, so equal floats
        render equally) — suitable for byte-identity comparisons across
        runs, processes, and worker counts.
        """
        lines = [
            f"{e.seq}|{e.time!r}|{e.kind.value}|{e.src}|{e.dst}|{e.tag}"
            for e in self.trace
        ]
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


# ----------------------------------------------------------------------
# Event-driven lookups
# ----------------------------------------------------------------------
@dataclass
class LookupTask:
    """One lookup in flight on the engine, filled in as it completes.

    ``hops``/``timeouts``/``owner_ident`` match what the synchronous
    :func:`~repro.ring.routing.route_to_key` would return for the same
    overlay state; the times are simulated-clock readings.
    """

    key: int
    start_ident: int
    start_time: float
    owner_ident: Optional[int] = None
    hops: int = 0
    timeouts: int = 0
    finish_time: Optional[float] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        """Has the lookup finished (successfully or not)?"""
        return self.finish_time is not None

    @property
    def ok(self) -> bool:
        """Did the lookup reach the owner?"""
        return self.done and self.error is None

    @property
    def latency(self) -> float:
        """Simulated completion latency (finish - start)."""
        if self.finish_time is None:
            raise ValueError("lookup has not completed")
        return self.finish_time - self.start_time


def schedule_lookup(
    engine: EventEngine,
    start: "PeerNode",
    key: int,
    *,
    tag: int = 0,
    on_complete: Optional[Callable[[LookupTask], None]] = None,
) -> LookupTask:
    """Drive one lookup hop by hop on the engine's clock.

    Routing decisions come from :func:`~repro.ring.routing.iter_route_steps`,
    the one implementation of ``route_to_key``'s rule; each counted step
    becomes one ``MESSAGE`` delivery, recorded as a ``LOOKUP_HOP`` at send
    time.  A timed-out probe towards a departed peer, and a send lost in
    transit, cost one delivery's wait before the sender rescans or
    retransmits, mirroring the reference's counted hop.  In immediate mode
    the completed task, the ledger delta and (under loss) the network RNG
    draws are exactly the reference's; with latency/service models the
    same hops spread over simulated time and queue at busy peers, and
    concurrent lossy lookups draw in event order.
    """
    network = engine.network
    task = LookupTask(key=int(key), start_ident=start.ident, start_time=engine.now)
    steps = iter_route_steps(network, start, int(key))

    def finish(owner: Optional[int], error: Optional[str] = None) -> None:
        task.owner_ident = owner
        task.error = error
        task.finish_time = engine.now
        if on_complete is not None:
            on_complete(task)

    def pump(at_ident: int) -> None:
        kind, ident, task.hops, task.timeouts, _, message = next(steps)
        if kind == "done":
            finish(ident)
            return
        # Every remaining kind is one counted hop, recorded at send time —
        # totals over the run equal the reference's one bulk record.
        network.record(MessageType.LOOKUP_HOP)
        if kind == "deliver":
            engine.deliver(
                at_ident, ident, EventKind.MESSAGE,
                lambda: finish(ident), tag=tag,
            )
        elif kind == "timeout" or kind == "lost":
            # The probe is sent and never answered (its target is gone, or
            # the message was lost): the sender waits one delivery's worth
            # of simulated time, then rescans or retransmits in place.
            engine.deliver(
                at_ident, ident, EventKind.MESSAGE,
                lambda: pump(at_ident), tag=tag,
            )
        elif kind == "fail":
            finish(None, message)
        else:  # forward
            engine.deliver(
                at_ident, ident, EventKind.MESSAGE,
                lambda: pump(ident), tag=tag,
            )

    # Kick off through the queue (not inline) so concurrent lookups
    # interleave deterministically by insertion order.
    engine.schedule(
        0.0, EventKind.TIMER, lambda: pump(start.ident),
        src=start.ident, dst=start.ident, tag=tag,
    )
    return task


# ----------------------------------------------------------------------
# Gossip exchanges
# ----------------------------------------------------------------------
def schedule_gossip_push(
    engine: EventEngine,
    src: int,
    dst: int,
    *,
    payload_units: float = 0.0,
    tag: int = 0,
    on_deliver: Optional[Callable[[], None]] = None,
) -> Event:
    """One push-sum exchange on the clock: recorded as ``GOSSIP_PUSH`` on
    delivery, carrying ``payload_units`` of application payload."""

    def handle() -> None:
        engine.network.record(MessageType.GOSSIP_PUSH, payload=payload_units)
        if on_deliver is not None:
            on_deliver()

    return engine.deliver(src, dst, EventKind.GOSSIP, handle, tag=tag)
