"""Churn processes: stochastic arrival and departure of peers.

The paper's setting is *dynamic* ring networks, so the churn model matters.
We drive the overlay with a discrete-round process: in each round a Poisson
number of peers joins and a Poisson number departs (gracefully or by
crashing), followed by a configurable amount of background maintenance.
Rates are expressed per round relative to current network size, the
convention used in DHT churn studies (a "churn rate" of 0.05 means 5 % of
peers turn over per round).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.ring import chord, mutation
from repro.ring.faults import FaultPlane
from repro.ring.messages import MessageType
from repro.ring.network import RingNetwork
from repro.ring.replication import ReplicationManager

__all__ = ["ChurnConfig", "ChurnProcess", "ChurnRoundReport"]


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the churn process.

    Attributes
    ----------
    join_rate / leave_rate:
        Expected joins / departures per round, as a fraction of current
        network size.  Equal rates keep the network size stationary.
    crash_fraction:
        Fraction of departures that are crashes (data loss, stale pointers)
        rather than graceful leaves.
    maintenance_rounds:
        Stabilize/fix-finger rounds executed after each churn round.
    min_peers:
        Departures never shrink the network below this floor.
    """

    join_rate: float = 0.02
    leave_rate: float = 0.02
    crash_fraction: float = 0.5
    maintenance_rounds: int = 1
    min_peers: int = 8

    def __post_init__(self) -> None:
        if self.join_rate < 0 or self.leave_rate < 0:
            raise ValueError("churn rates must be non-negative")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ValueError(f"crash_fraction must be in [0, 1], got {self.crash_fraction}")
        if self.maintenance_rounds < 0:
            raise ValueError("maintenance_rounds must be >= 0")
        if self.min_peers < 1:
            raise ValueError("min_peers must be >= 1")


@dataclass
class ChurnRoundReport:
    """What happened during one churn round.

    Beyond the membership deltas, each round carries its mutation
    throughput: ``wall_s`` is the wall-clock time of the whole round
    (faults, churn, maintenance, replication) and ``values_moved`` the
    total data-plane volume — every ``DATA_TRANSFER`` payload the round
    recorded (join/leave handoffs, replica pushes, crash recovery).
    """

    joins: int = 0
    graceful_leaves: int = 0
    crashes: int = 0
    items_lost: int = 0
    items_recovered: int = 0
    peers_after: int = 0
    wall_s: float = 0.0
    values_moved: int = 0

    def merge(self, other: "ChurnRoundReport") -> "ChurnRoundReport":
        """Accumulate another round's report into a running total."""
        return ChurnRoundReport(
            joins=self.joins + other.joins,
            graceful_leaves=self.graceful_leaves + other.graceful_leaves,
            crashes=self.crashes + other.crashes,
            items_lost=self.items_lost + other.items_lost,
            items_recovered=self.items_recovered + other.items_recovered,
            peers_after=other.peers_after,
            wall_s=self.wall_s + other.wall_s,
            values_moved=self.values_moved + other.values_moved,
        )


@dataclass
class ChurnProcess:
    """Drives joins/leaves/crashes against a live network.

    With a :class:`~repro.ring.replication.ReplicationManager` attached,
    each crash triggers replica recovery at the inheriting peer and a
    replication round runs every ``replication_every`` churn rounds, so
    ``items_lost`` shrinks to the staleness window of the replicas.
    """

    network: RingNetwork
    config: ChurnConfig = field(default_factory=ChurnConfig)
    rng: Optional[np.random.Generator] = None
    replication: Optional[ReplicationManager] = None
    replication_every: int = 1
    #: Optional fault plane advanced at the start of every round, so
    #: scheduled injections (crash bursts, stalls, partitions) land on the
    #: same round clock as churn.  ``None`` (the default) leaves the round
    #: loop exactly as before.
    faults: Optional[FaultPlane] = None

    def __post_init__(self) -> None:
        if self.rng is None:
            # Seeded default: churn without an explicit generator must
            # still replay identically run to run.
            self.rng = np.random.default_rng(0)
        if self.replication_every < 1:
            raise ValueError("replication_every must be >= 1")
        self._rounds_run = 0
        if self.faults is not None and self.network.faults is not self.faults:
            # The churn process's own plane drives the run by design, even
            # when a whole-suite profile plane is already attached.
            self.network.install_faults(self.faults, replace=True)
        if self.replication is not None and self.replication.factor > 1:
            self.replication.replicate_round()

    def _apply_departure(self, ident: int, is_crash: bool, report: ChurnRoundReport) -> None:
        """One departure (shared by the planned and sequential paths)."""
        if is_crash:
            lost = chord.crash(self.network, ident)
            report.crashes += 1
            if self.replication is not None and self.replication.factor > 1:
                recovery = self.replication.recover_after_crash(ident)
                report.items_recovered += recovery.recovered
                lost -= recovery.recovered
            report.items_lost += max(lost, 0)
        else:
            chord.leave_gracefully(self.network, ident)
            report.graceful_leaves += 1

    def run_round(self) -> ChurnRoundReport:
        """Execute one round: scheduled faults, joins, departures, maintenance.

        On a clean loss-free ring the round runs through the batched
        mutation kernel (:mod:`repro.ring.mutation`): all joins and
        departures are drawn up front — consuming both RNG streams exactly
        as the sequential loop would — and each join is spliced in at its
        rank-resolved successor instead of a routed one.  Lossy delivery or
        fault-perturbed pointer state select the sequential loop of routed
        joins; both paths share the join splice and produce the same ring
        state, stores, and (LOOKUP_HOP aside) the same message ledger.
        Maintenance then runs :func:`~repro.ring.chord.maintenance_round`
        ``maintenance_rounds`` times.
        """
        started = time.perf_counter()  # repro-lint: disable=RNG002 (wall_s instrumentation; timing is reported, never fed into results)
        report = ChurnRoundReport()
        if self.faults is not None:
            fault_report = self.faults.advance(self.network)
            report.crashes += fault_report.crashes
            report.items_lost += fault_report.items_lost
        stats = self.network.stats
        moved_before = stats.payload_of(MessageType.DATA_TRANSFER)

        if self.network.loss_rate <= 0.0 and mutation.ring_is_clean(self.network):
            plan = mutation.plan_round(self.network, self.config, self.rng)
            mutation.apply_joins(self.network, plan.joins)
            report.joins += len(plan.joins)
            for ident, is_crash in plan.departures:
                self._apply_departure(ident, is_crash, report)
        else:
            n = self.network.n_peers
            n_joins = int(self.rng.poisson(self.config.join_rate * n))
            for _ in range(n_joins):
                ident = chord.random_unused_identifier(self.network, self.rng)
                chord.join(self.network, ident)
                report.joins += 1

            n_leaves = int(self.rng.poisson(self.config.leave_rate * n))
            for _ in range(n_leaves):
                if self.network.n_peers <= self.config.min_peers:
                    break
                victim = self.network.random_peer()
                is_crash = bool(self.rng.random() < self.config.crash_fraction)
                self._apply_departure(victim.ident, is_crash, report)

        for _ in range(self.config.maintenance_rounds):
            chord.maintenance_round(self.network)

        self._rounds_run += 1
        if (
            self.replication is not None
            and self.replication.factor > 1
            and self._rounds_run % self.replication_every == 0
        ):
            self.replication.replicate_round()

        report.peers_after = self.network.n_peers
        report.values_moved = int(
            stats.payload_of(MessageType.DATA_TRANSFER) - moved_before
        )
        report.wall_s = time.perf_counter() - started  # repro-lint: disable=RNG002 (wall_s instrumentation; timing is reported, never fed into results)
        return report

    def run(self, rounds: int) -> ChurnRoundReport:
        """Execute ``rounds`` rounds and return the aggregate report."""
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        total = ChurnRoundReport(peers_after=self.network.n_peers)
        for _ in range(rounds):
            total = total.merge(self.run_round())
        return total
