"""Unified fault-injection plane and bounded retry policies.

Fault modelling used to be scattered: a scalar ``loss_rate`` with implicit
infinite retransmission in :mod:`repro.ring.routing`, ad hoc crash handling
in :mod:`repro.ring.churn`, and one-off summary corruption in
:mod:`repro.core.byzantine`.  This module unifies all of it behind one
composable, seed-deterministic API:

* :class:`FaultPlane` — a scriptable per-round fault schedule that injects
  message loss, peer *stalls* (alive but unresponsive), crash bursts, ring
  partitions, and Byzantine summary fabrication.  With no
  faults configured the plane is inert and every code path is bit-identical
  to a plane-less network.
* :class:`RetryPolicy` — an explicit retry model replacing the historical
  retry-forever assumption: bounded per-link transmission attempts,
  successor-list failover, and budget-aware abort.  The legacy behaviour is exactly :data:`RetryPolicy.UNBOUNDED`.

Determinism contract: the plane draws all of its randomness from its *own*
generator (``np.random.default_rng(seed)``), never from the network's.
Identical schedules therefore replay bit-identically regardless of worker
count, snapshot rebuild strategy, or interleaved estimation traffic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence, cast

import numpy as np
from numpy.typing import NDArray

from repro.ring.lockstep import FaultRows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network -> faults)
    from repro.ring.events import EventEngine
    from repro.ring.network import RingNetwork

__all__ = [
    "FaultPlane",
    "FaultRoundReport",
    "RetryPolicy",
    "FAULT_PROFILES",
    "plane_from_profile",
    "validate_probability",
]

#: Environment variable consulted by :meth:`RingNetwork.create`; when set to
#: a profile name, every created network gets a fault plane attached.  Used
#: by ``repro-experiments --faults`` so whole experiment suites (and their
#: worker subprocesses) run under a common fault schedule.
FAULT_PROFILE_ENV = "REPRO_FAULT_PROFILE"


def validate_probability(name: str, value: float, upper_inclusive: bool = False) -> float:
    """Validate a probability-like parameter with a clear error.

    Rates used as per-event probabilities must lie in ``[0, 1)`` (a rate of
    exactly 1.0 would retry/lose forever and silently hang unbounded
    loops); fractions of a population may be ``[0, 1]``
    (``upper_inclusive=True``).
    """
    top = 1.0 if upper_inclusive else np.nextafter(1.0, 0.0)
    if not 0.0 <= value <= top:
        bound = "[0, 1]" if upper_inclusive else "[0, 1)"
        raise ValueError(f"{name} must be in {bound}, got {value}")
    return float(value)


@dataclass(frozen=True)
class RetryPolicy:
    """How a sender handles non-delivery: attempt and hop budgets.

    Attributes
    ----------
    max_attempts:
        Transmission attempts per link before the peer is declared
        unreachable and routing fails over (successor list / alternate
        finger).  ``None`` retries forever — the historical model, under
        which delivery is eventually reliable and cost inflates by
        ``1/(1-p)`` per link (see F15).
    max_hops:
        Overall hop budget per lookup (budget-aware abort).  ``None`` uses
        the router's generous default of ``2N + bits``.
    """

    max_attempts: Optional[int] = None
    max_hops: Optional[int] = None

    #: Shared instances, assigned after the class body.
    UNBOUNDED: ClassVar["RetryPolicy"]
    DEFAULT: ClassVar["RetryPolicy"]

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.max_hops is not None and self.max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {self.max_hops}")

    def with_hop_budget(self, max_hops: int) -> "RetryPolicy":
        """This policy with an explicit per-lookup hop budget."""
        return replace(self, max_hops=max_hops)


# The two canonical policies: the legacy retry-forever model, and a bounded
# default (4 attempts/link) used whenever faults are active and the caller
# did not choose a policy explicitly.  (Frozen dataclasses only freeze
# instances; class attributes assign normally.)
RetryPolicy.UNBOUNDED = RetryPolicy()
RetryPolicy.DEFAULT = RetryPolicy(max_attempts=4)


@dataclass
class FaultRoundReport:
    """What one :meth:`FaultPlane.advance` round injected."""

    round: int = 0
    crashes: int = 0
    items_lost: int = 0
    stalled: int = 0
    recovered_stalls: int = 0
    partitioned: bool = False
    byzantine: int = 0


@dataclass
class _FaultEvent:
    """One scheduled injection (internal)."""

    kind: str  # "crash" | "stall" | "partition" | "byzantine" | "loss"
    fraction: float = 0.0
    count: int = 0
    idents: tuple[int, ...] = ()
    duration: Optional[int] = None  # rounds a stall/partition lasts; None = forever
    cuts: tuple[int, ...] = ()
    behavior: object = None  # ByzantineBehavior for "byzantine"
    rate: float = 0.0  # new base loss rate for "loss"


class FaultPlane:
    """Composable, seed-deterministic fault injection for a ring network.

    The plane is *scriptable per round*: :meth:`at` schedules injections for
    future rounds and :meth:`advance` applies the current round's events
    (the churn driver calls it once per round; standalone use may call it
    directly).  Immediate faults can be injected with :meth:`stall`,
    :meth:`partition`, :meth:`crash_burst`, and :meth:`corrupt`.

    Routing reads the plane through :meth:`row_view` (stalls and partition
    arcs per ring row); :meth:`is_stalled` and :meth:`reachable` answer the
    same questions for one peer.  With no faults configured (:attr:`active`
    is False) routing never reads the plane and behaviour is bit-identical
    to a plane-less network.
    """

    def __init__(self, seed: int = 0, loss_rate: float = 0.0) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: Base message-loss probability the plane contributes.  Subsumes
        #: the scalar ``RingNetwork.loss_rate``: attaching a plane with a
        #: base loss installs it as the network's loss rate, reusing the
        #: exact legacy retransmission machinery (and its RNG stream).
        self.loss_rate = validate_probability("loss_rate", loss_rate)
        #: Stalled peers: ident -> expiry round (None = until healed).
        self._stalled: dict[int, Optional[int]] = {}
        #: Ring partition: sorted cut identifiers; two peers communicate
        #: iff their identifiers fall in the same arc between cuts.
        self._cuts: list[int] = []
        self._partition_expiry: Optional[int] = None
        self._schedule: dict[int, list[_FaultEvent]] = {}
        self.round = 0
        #: Fraction of peers stalled at attach time (profile convenience).
        self._attach_stall_fraction = 0.0
        #: Bumped by every change to stalls or cuts; keys the per-row view
        #: :meth:`row_view` caches.
        self._version = 0
        self._rows: Optional[tuple[int, NDArray[np.uint64], FaultRows]] = None

    # ------------------------------------------------------------------
    # Configuration / scripting
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when any structural fault is configured (now or scheduled).

        Base ``loss_rate`` alone does not count: it is installed as the
        network's scalar loss rate and handled by the legacy (bit-exact)
        retransmission path.
        """
        return bool(self._stalled or self._cuts or self._schedule or self._attach_stall_fraction)

    def stall(self, idents: Sequence[int], rounds: Optional[int] = None) -> None:
        """Mark peers unresponsive (alive, routable *to*, but never replying).

        A stalled peer times out like a crashed one from the sender's view,
        but keeps its data and pointers; it resumes after ``rounds`` fault
        rounds (``None`` = until :meth:`heal`).
        """
        if rounds is not None and rounds < 1:
            raise ValueError(f"stall rounds must be >= 1, got {rounds}")
        expiry = None if rounds is None else self.round + rounds
        for ident in idents:
            self._stalled[int(ident)] = expiry
        self._version += 1

    def partition(self, cuts: Sequence[int], rounds: Optional[int] = None) -> None:
        """Split the ring into arcs at the given cut identifiers.

        Peers whose identifiers fall between the same pair of consecutive
        cuts can exchange messages; any cross-arc message is dropped (the
        sender observes a timeout).  At least two cuts are required — one
        cut leaves the ring connected.
        """
        cut_list = sorted({int(c) for c in cuts})
        if len(cut_list) < 2:
            raise ValueError(f"a partition needs >= 2 cut points, got {cut_list}")
        if rounds is not None and rounds < 1:
            raise ValueError(f"partition rounds must be >= 1, got {rounds}")
        self._cuts = cut_list
        self._partition_expiry = None if rounds is None else self.round + rounds
        self._version += 1

    def heal(self) -> None:
        """Clear all stalls and partitions immediately."""
        self._stalled.clear()
        self._cuts = []
        self._partition_expiry = None
        self._version += 1

    def at(
        self,
        round: int,
        *,
        crash_fraction: float = 0.0,
        crash_count: int = 0,
        stall_fraction: float = 0.0,
        stall_rounds: Optional[int] = None,
        partition_cuts: Sequence[int] = (),
        partition_rounds: Optional[int] = None,
        byzantine_fraction: float = 0.0,
        byzantine_behavior: object = None,
        loss_rate: Optional[float] = None,
    ) -> "FaultPlane":
        """Schedule injections for fault round ``round`` (chainable).

        All fractions are validated up front; victims are drawn from the
        plane's own generator when the round is applied, so the schedule
        replays deterministically.
        """
        if round < 0:
            raise ValueError(f"round must be >= 0, got {round}")
        events = self._schedule.setdefault(round, [])
        if crash_fraction or crash_count:
            validate_probability("crash_fraction", crash_fraction, upper_inclusive=True)
            events.append(
                _FaultEvent(kind="crash", fraction=crash_fraction, count=crash_count)
            )
        if stall_fraction:
            validate_probability("stall_fraction", stall_fraction, upper_inclusive=True)
            events.append(
                _FaultEvent(kind="stall", fraction=stall_fraction, duration=stall_rounds)
            )
        if partition_cuts:
            cut_list = sorted({int(c) for c in partition_cuts})
            if len(cut_list) < 2:
                raise ValueError(f"a partition needs >= 2 cut points, got {cut_list}")
            events.append(
                _FaultEvent(kind="partition", cuts=tuple(cut_list), duration=partition_rounds)
            )
        if byzantine_fraction:
            validate_probability(
                "byzantine_fraction", byzantine_fraction, upper_inclusive=True
            )
            events.append(
                _FaultEvent(
                    kind="byzantine",
                    fraction=byzantine_fraction,
                    behavior=byzantine_behavior,
                )
            )
        if loss_rate is not None:
            validate_probability("loss_rate", loss_rate)
            events.append(_FaultEvent(kind="loss", rate=loss_rate))
        return self

    # ------------------------------------------------------------------
    # Attachment and round driving
    # ------------------------------------------------------------------
    def attach(self, network: "RingNetwork") -> None:
        """Install this plane on a network (called by ``install_faults``).

        Applies profile-style attach-time stalls and, when the plane
        carries a base loss rate, installs it as the network's scalar loss
        rate so the legacy lossy-delivery machinery (and its exact RNG
        stream) is reused.  The plane owns the rate: attaching always
        installs a nonzero ``loss_rate`` (last attached plane wins), while
        a zero-loss plane leaves any existing rate alone — F18 attaches
        fresh zero-loss planes onto already-lossy clones.
        """
        if self.loss_rate > 0.0:
            network.loss_rate = self.loss_rate
        if self._attach_stall_fraction > 0.0:
            self._stall_fraction(network, self._attach_stall_fraction, rounds=None)

    def advance(self, network: "RingNetwork") -> FaultRoundReport:
        """Apply this round's scheduled injections and age ongoing faults."""
        report = FaultRoundReport(round=self.round)
        for event in self._schedule.pop(self.round, ()):  # deterministic order
            if event.kind == "crash":
                report.crashes, report.items_lost = self._crash_burst(
                    network, event.fraction, event.count
                )
            elif event.kind == "stall":
                report.stalled += self._stall_fraction(
                    network, event.fraction, event.duration
                )
            elif event.kind == "partition":
                self.partition(event.cuts, event.duration)
            elif event.kind == "byzantine":
                report.byzantine = len(
                    self.corrupt(network, event.fraction, event.behavior)
                )
            elif event.kind == "loss":
                self.loss_rate = event.rate
                network.loss_rate = event.rate
        self.round += 1
        # Expire timed stalls/partitions *after* advancing, so a fault with
        # duration d is observable for exactly d rounds.
        expired = [i for i, exp in self._stalled.items() if exp is not None and exp < self.round]
        for ident in expired:
            del self._stalled[ident]
        report.recovered_stalls = len(expired)
        if self._partition_expiry is not None and self._partition_expiry < self.round:
            self._cuts = []
            self._partition_expiry = None
        report.partitioned = bool(self._cuts)
        self._version += 1
        return report

    def _pending_rounds(self) -> bool:
        """Is there any future round transition left to observe?

        True while scheduled injections remain, any timed stall has an
        expiry still to pass, or a timed partition is in force — the
        conditions under which another :meth:`advance` changes state.
        """
        if self._schedule:
            return True
        if any(exp is not None for exp in self._stalled.values()):
            return True
        return self._partition_expiry is not None

    def bind(self, engine: "EventEngine", round_duration: float = 1.0) -> list[FaultRoundReport]:
        """Ride this plane's round schedule on an event engine's clock.

        Generalizes the ``at()``/``advance()`` round counter onto the
        shared simulated clock: one ``FAULT_ROUND`` event fires per
        ``round_duration``, calling :meth:`advance` on the engine's
        network, and re-chains itself while :meth:`_pending_rounds` says a
        future transition remains (so inert planes schedule nothing and
        finished schedules stop cleanly).  Returns the live report list,
        appended to as rounds fire.  Do not also drive the same plane from
        a synchronous churn loop — the plane has one round counter and it
        should tick on one clock.
        """
        from repro.ring.events import EventKind  # local: events -> routing -> faults

        if round_duration <= 0.0:
            raise ValueError(f"round_duration must be > 0, got {round_duration}")
        reports: list[FaultRoundReport] = []

        def fire() -> None:
            reports.append(self.advance(engine.network))
            if self._pending_rounds():
                engine.schedule(round_duration, EventKind.FAULT_ROUND, fire, tag=self.round)

        if self._pending_rounds():
            engine.schedule(round_duration, EventKind.FAULT_ROUND, fire, tag=self.round)
        return reports

    def _pick_peers(self, network: "RingNetwork", fraction: float, count: int) -> list[int]:
        """Draw victims uniformly without replacement from the plane's RNG."""
        ids = list(network.peer_ids())
        if not ids:
            return []
        n = min(max(int(round(fraction * len(ids))), count), len(ids))
        if n <= 0:
            return []
        picked = self.rng.choice(len(ids), size=n, replace=False)
        return [ids[int(i)] for i in picked]

    def _crash_burst(
        self, network: "RingNetwork", fraction: float, count: int
    ) -> tuple[int, int]:
        """Crash a burst of peers (correlated failure), keeping >= 1 alive."""
        from repro.ring import chord  # local import: chord -> routing -> faults

        crashed = 0
        lost = 0
        for ident in self._pick_peers(network, fraction, count):
            if network.n_peers <= 1:
                break
            lost += chord.crash(network, ident)
            self._stalled.pop(ident, None)
            self._version += 1
            crashed += 1
        return crashed, lost

    def _stall_fraction(
        self, network: "RingNetwork", fraction: float, rounds: Optional[int]
    ) -> int:
        victims = self._pick_peers(network, fraction, 0)
        self.stall(victims, rounds)
        return len(victims)

    def crash_burst(self, network: "RingNetwork", fraction: float = 0.0, count: int = 0) -> int:
        """Immediately crash a random burst of peers; returns the number crashed."""
        validate_probability("crash fraction", fraction, upper_inclusive=True)
        crashed, _ = self._crash_burst(network, fraction, count)
        return crashed

    def corrupt(
        self, network: "RingNetwork", fraction: float, behavior: object = None
    ) -> list[int]:
        """Mark a random fraction of peers Byzantine (summary fabrication).

        Subsumes :func:`repro.core.byzantine.corrupt_network` behind the
        plane: same marking semantics, but victims are drawn from the
        plane's deterministic generator.
        """
        from repro.core.byzantine import ByzantineBehavior, corrupt_network  # repro-lint: disable=ARCH001 (deliberate upward call: the fault plane fronts the core Byzantine marker for compatibility; deferred so ring/ stays import-clean at load)

        chosen = ByzantineBehavior() if behavior is None else cast(ByzantineBehavior, behavior)
        return corrupt_network(network, fraction, chosen, rng=self.rng)

    # ------------------------------------------------------------------
    # Per-peer queries
    # ------------------------------------------------------------------
    def is_stalled(self, ident: int) -> bool:
        """Is this peer currently unresponsive?"""
        return ident in self._stalled

    def _arc_of(self, ident: int) -> int:
        """Index of the partition arc containing ``ident`` (cuts sorted).

        ``bisect`` puts identifiers below the first cut and at/above the
        last cut in the same (wrapping) arc, which is exactly the ring
        geometry of cutting a circle at k points.
        """
        index = bisect.bisect_right(self._cuts, ident)
        return index % len(self._cuts)

    def reachable(self, src: int, dst: int) -> bool:
        """Can a message cross from ``src`` to ``dst`` under the partition?"""
        if not self._cuts or src == dst:
            return True
        return self._arc_of(src) == self._arc_of(dst)

    def link_delivers(self, src: int, dst: int) -> bool:
        """Every link delivers: the plane adds no loss of its own.

        Message loss is the network's base rate, drawn where a send is
        made; this draws nothing.  Kept as the name the benchmark tracer
        (``perfbench/tracing.py``) counts link draws under.
        """
        return True

    def row_view(self, ids: NDArray[np.uint64]) -> FaultRows:
        """Stalls and partition arcs per row of ``ids``.

        ``ids`` is a ring's sorted live identifiers
        (:meth:`~repro.ring.network.RingNetwork.sorted_ids_array`).  The
        view is what the policy mode of
        :func:`~repro.ring.lockstep.route_lockstep` reads instead of
        :meth:`is_stalled` and :meth:`reachable`; it is cached until the
        plane changes or another ``ids`` array is passed.
        """
        cached = self._rows
        if cached is not None and cached[0] == self._version and cached[1] is ids:
            return cached[2]
        stalled = np.zeros(ids.size, dtype=bool)
        if self._stalled and ids.size:
            wanted = np.fromiter(self._stalled, dtype=np.uint64, count=len(self._stalled))
            at = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
            stalled[at[ids[at] == wanted]] = True
        arc = None
        if self._cuts:
            cuts = np.asarray(self._cuts, dtype=np.uint64)
            arc = np.searchsorted(cuts, ids, side="right").astype(np.int64) % cuts.size
        view = FaultRows(stalled, arc)
        self._rows = (self._version, ids, view)
        return view

    @property
    def stalled_ids(self) -> frozenset[int]:
        """Currently stalled peer identifiers (diagnostics/tests)."""
        return frozenset(self._stalled)

    @property
    def partitioned(self) -> bool:
        """Is a ring partition currently in force?"""
        return bool(self._cuts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlane(seed={self.seed}, loss={self.loss_rate}, "
            f"stalled={len(self._stalled)}, cuts={len(self._cuts)}, "
            f"scheduled={sum(len(v) for v in self._schedule.values())})"  # repro-lint: disable=SUM001 (integer count in a debug repr; order-insensitive)
        )


#: Named fault profiles for the CLI smoke matrix (``--faults``): attach-time
#: parameters; the plane seed is derived from the experiment seed so runs
#: stay reproducible.  "light" exercises the degraded paths without
#: overwhelming the estimators; "heavy" adds a partition.
FAULT_PROFILES: dict[str, dict[str, float]] = {
    "light": {"loss_rate": 0.05, "stall_fraction": 0.03},
    "heavy": {"loss_rate": 0.15, "stall_fraction": 0.10, "partition_arcs": 2},
}


def plane_from_profile(name: str, seed: int = 0, ring_size: Optional[int] = None) -> FaultPlane:
    """Build the fault plane a named profile describes.

    ``ring_size`` is needed when the profile includes a partition (cut
    points are evenly spaced around the ring).
    """
    try:
        profile = FAULT_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; known: {sorted(FAULT_PROFILES)}"
        ) from None
    plane = FaultPlane(seed=seed, loss_rate=profile.get("loss_rate", 0.0))
    plane._attach_stall_fraction = validate_probability(
        "stall_fraction", profile.get("stall_fraction", 0.0), upper_inclusive=True
    )
    arcs = int(profile.get("partition_arcs", 0))
    if arcs >= 2:
        if ring_size is None:
            raise ValueError(f"profile {name!r} partitions the ring; pass ring_size")
        plane.partition([ring_size * i // arcs for i in range(arcs)])
    return plane
