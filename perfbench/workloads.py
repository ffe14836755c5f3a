"""The three benchmark workloads: inputs, set-up, timed phase, output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  All inputs (datasets, query pools,
schedules, update batches, probe seeds) derive from the workload seed and
are generated outside the timed regions.

A timed phase runs a fixed amount of work: ``Sizes.rate`` ops (cycles on
the serving workload) per requested second, so that it lasts about that
long on a 2-vCPU VM, and never fewer than ``Sizes.min_ops``.  Fixed work
makes the phase replay identically at a given seed: the cost and accuracy
metrics (messages per op, critical-path rounds, KS error, coverage) are
exact, and the wall-clock metrics of two runs time the same operations.
The speed of a small VM drifts within seconds to minutes, and a
time-bounded phase would let that drift change the work itself (the
per-peer summary memo warms up over a run, so a faster run would also be a
warmer one).
"""

from __future__ import annotations

import gc
import math
import time
import traceback
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Optional

import numpy as np

from repro.core.cdf import empirical_cdf
from repro.core.estimate import DegradedEstimate, DensityEstimate
from repro.core.estimator import DistributionFreeEstimator
from repro.core.metrics import ks_distance
from repro.data.distributions import TruncatedNormal
from repro.data.domain import UNIT_DOMAIN
from repro.data.workload import build_dataset
from repro.ring.churn import ChurnConfig, ChurnProcess
from repro.ring.faults import RetryPolicy, plane_from_profile
from repro.ring.network import RingNetwork
from repro.serve.bench import BATCH_SIZE, DISTINCT_BATCHES, _build_pools, _serve_batch
from repro.serve.policy import StalenessSLO
from repro.serve.service import EstimationService
from tracing import SETUP_OP, WRITE_OP

GRID_POINTS = 512


@dataclass(frozen=True)
class Sizes:
    peers: int
    items: int
    rate: float      # ops (cycles on serve-churn-30k) per requested second
    min_ops: int
    setups: int      # set-ups per run; setup_s is their median

    def ops(self, seconds: float) -> int:
        return max(self.min_ops, round(seconds * self.rate))


@dataclass
class Phase:
    """What one timed phase measured."""

    op_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    messages: int = 0
    rounds: list[float] = field(default_factory=list)
    ks: list[float] = field(default_factory=list)
    answered: int = 0
    requested: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def zero_evidence(estimate: DensityEstimate) -> bool:
    return estimate.degraded and estimate.coverage == 0.0


class _EstimateLoop:
    """Shared timed loop of the two estimate workloads: one estimate per op."""

    name = ""
    ks_bound = 1.0
    sizes: Sizes
    network: Any

    def __init__(self, seed: int, sizes: Sizes, tracer: Any) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.dataset = build_dataset("normal", sizes.items, seed=seed)
        self.domain = self.dataset.distribution.domain.as_tuple()
        self.grid = np.linspace(self.domain[0], self.domain[1], GRID_POINTS)
        truth_on_grid = empirical_cdf(self.dataset.values)(self.grid)
        self.truth = lambda grid: truth_on_grid
        self.network = None

    def release(self) -> None:
        self.network = None

    def estimate(self, rng: np.random.Generator) -> DensityEstimate:
        raise NotImplementedError

    def check_estimate(self, estimate: DensityEstimate, phase: Phase) -> None:
        """Workload-specific output checks on one estimate (untimed)."""

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        tracer = self.tracer
        for i in range(self.sizes.ops(seconds)):
            rng = np.random.default_rng([self.seed, i])
            tracer.op = i
            t0 = time.perf_counter()
            try:
                estimate: Optional[DensityEstimate] = self.estimate(rng)
            except Exception:  # a failed op is counted, and the loop goes on
                estimate = None
                error = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            phase.op_s.append(dt)
            phase.timed_s += dt
            phase.attempted += 1
            if estimate is None:
                phase.fail(error)
            elif zero_evidence(estimate):
                phase.fail(f"op {i}: zero-evidence estimate {estimate.failures}")  # type: ignore[attr-defined]
            if estimate is not None:
                self.check_estimate(estimate, phase)
                phase.messages += estimate.messages
                phase.rounds.append(estimate.latency_rounds)
                phase.ks.append(ks_distance(estimate.cdf, self.truth, self.grid))
                phase.answered += estimate.probes
            phase.requested += self.probes
        return phase

    def layer_counters(self) -> dict[str, float]:
        return {}


class Estimate1M(_EstimateLoop):
    """The paper's headline path at the advertised scale (compact backend)."""

    name = "estimate-1m"
    probes = 256
    ks_bound = 0.2
    FULL = Sizes(peers=1_000_000, items=2_000_000, rate=80.0, min_ops=20, setups=2)
    TINY = Sizes(peers=2_000, items=8_000, rate=0.0, min_ops=6, setups=1)

    def __init__(self, seed: int, sizes: Sizes, tracer: Any) -> None:
        super().__init__(seed, sizes, tracer)
        self.estimator = DistributionFreeEstimator(probes=self.probes)

    def setup(self) -> None:
        with self.tracer.span("compact.build"):
            ring = RingNetwork.create(
                self.sizes.peers, seed=self.seed + 1, domain=self.domain, compact=True
            )
        with self.tracer.span("compact.load"):
            ring.load_counts(self.dataset.values)
        self.network = ring

    def estimate(self, rng: np.random.Generator) -> DensityEstimate:
        return self.estimator.estimate(self.network, rng=rng)

    def check_estimate(self, estimate: DensityEstimate, phase: Phase) -> None:
        phase.check("full_coverage", not estimate.degraded and estimate.probes == self.probes)


class Faults30K(_EstimateLoop):
    """Resilient estimates on the object ring under the ``light`` fault profile."""

    name = "faults-30k"
    probes = 128
    ks_bound = 0.25
    FULL = Sizes(peers=30_000, items=300_000, rate=14.0, min_ops=20, setups=3)
    TINY = Sizes(peers=300, items=3_000, rate=0.0, min_ops=6, setups=1)

    def __init__(self, seed: int, sizes: Sizes, tracer: Any) -> None:
        super().__init__(seed, sizes, tracer)
        self.estimator = DistributionFreeEstimator(probes=self.probes, retry=RetryPolicy.DEFAULT)

    def setup(self) -> None:
        with self.tracer.span("network.build"):
            network = RingNetwork.create(self.sizes.peers, seed=self.seed + 1, domain=self.domain)
        with self.tracer.span("network.load"):
            network.load_data(self.dataset.values)
        with self.tracer.span("faults.attach"):
            network.install_faults(plane_from_profile("light", seed=self.seed + 2))
        self.network = network

    def estimate(self, rng: np.random.Generator) -> DensityEstimate:
        return self.estimator.estimate(self.network, rng=rng)

    def check_estimate(self, estimate: DensityEstimate, phase: Phase) -> None:
        if isinstance(estimate, DegradedEstimate):
            phase.counters["degraded_estimates"] = phase.counters.get("degraded_estimates", 0) + 1
            coverage = estimate.coverage
            phase.check("coverage_in_(0,1]", 0.0 < coverage <= 1.0)
            if coverage > 0.0:
                expected = 1.0 / math.sqrt(coverage)
                phase.check(
                    "ci_inflation==1/sqrt(coverage)",
                    math.isclose(estimate.ci_inflation, expected, rel_tol=1e-12),
                )
                phase.check("widened_band", estimate.confidence is not None)


KINDS = ("cdf", "quantile", "selectivity", "sample")


class ServeChurn30K:
    """Cached serving beside writes: reads, then an update + churn write step.

    Query batches come from the serving bench's (S1's) pools and are served
    through its batch dispatch; only the Zipf reuse schedule is this
    workload's own.
    """

    name = "serve-churn-30k"
    ks_bound = 0.2
    FULL = Sizes(peers=30_000, items=300_000, rate=1.5, min_ops=3, setups=3)
    TINY = Sizes(peers=300, items=3_000, rate=0.0, min_ops=3, setups=1)
    reads_per_cycle = 40
    update_share = 0.01      # of the stored items, per write step
    probes = 128
    # Bit-identity check on every other group of len(KINDS) consecutive
    # batches: the kinds go round-robin, so every kind is checked alike.
    check_every = 2

    def __init__(self, seed: int, sizes: Sizes, tracer: Any) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.dataset = build_dataset("normal", sizes.items, seed=seed)
        self.domain = self.dataset.distribution.domain.as_tuple()
        self.grid = np.linspace(self.domain[0], self.domain[1], GRID_POINTS)
        self.pools = _build_pools(self.domain, np.random.default_rng([seed, 1]))
        ranks = np.arange(1, DISTINCT_BATCHES + 1, dtype=float)
        self.zipf = (1.0 / ranks) / np.sum(1.0 / ranks)
        self.network: Optional[RingNetwork] = None

    def release(self) -> None:
        self.network = None
        self.service = None
        self.churn = None

    def setup(self) -> None:
        tracer = self.tracer
        with tracer.span("network.build"):
            network = RingNetwork.create(self.sizes.peers, seed=self.seed + 1, domain=self.domain)
        with tracer.span("network.load"):
            network.load_data(self.dataset.values)
        service = EstimationService(
            network,
            estimator=DistributionFreeEstimator(probes=self.probes),
            slo=StalenessSLO(max_error=0.1, check_probes=16),
            cache_entries=256,
            rng=np.random.default_rng([self.seed, 4]),
        )
        with tracer.span("serve.bootstrap"):
            service.refresh()
        self.churn = ChurnProcess(
            network,
            ChurnConfig(join_rate=0.01, leave_rate=0.01, crash_fraction=0.5),
            rng=np.random.default_rng([self.seed, 5]),
        )
        self.network = network
        self.service = service

    # -- inputs --------------------------------------------------------
    def _updates(
        self, cycle: int, live: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One write step's inserts and deletes; returns the next live set too.

        Inserts come from a normal whose mean drifts around the domain
        centre (one period every 16 write steps); deletes remove uniformly
        chosen items of the generator's live set.  Items lost to crashes
        stay in that set, so a few deletes find nothing to remove.
        """
        count = max(int(self.sizes.items * self.update_share), 2)
        n_insert = count // 2
        mean = 0.5 + 0.3 * math.sin(2.0 * math.pi * cycle / 16.0)
        inserts = TruncatedNormal(mean=mean, std=0.08, _domain=UNIT_DOMAIN).sample(n_insert, rng)
        picks = rng.choice(live.size, size=count - n_insert, replace=False)
        deletes = live[picks]
        live = np.concatenate((np.delete(live, picks), inserts))
        return inserts, deletes, live

    def _schedule(self, rng: np.random.Generator) -> list[tuple[str, Any]]:
        picks = rng.choice(DISTINCT_BATCHES, size=self.reads_per_cycle, p=self.zipf)
        return [
            (KINDS[j % len(KINDS)], self.pools[KINDS[j % len(KINDS)]][int(pick)])
            for j, pick in enumerate(picks)
        ]

    # -- operations ----------------------------------------------------
    def _uncached(self, kind: str, batch: Any) -> np.ndarray:
        """The answer recomputed from ``service.current``, bypassing the cache."""
        estimate = self.service.current
        if kind == "cdf":
            return np.asarray(estimate.cdf(batch), dtype=float)
        if kind == "quantile":
            return np.asarray(estimate.cdf.inverse(batch), dtype=float)
        if kind == "selectivity":
            return np.asarray(estimate.cdf(batch[1]), dtype=float) - np.asarray(
                estimate.cdf(batch[0]), dtype=float
            )
        return estimate.cdf.sample(BATCH_SIZE, np.random.default_rng(int(batch[0])))

    def _apply_updates(self, inserts: np.ndarray, deletes: np.ndarray) -> int:
        network = self.network
        owners = network.owners_of_values(np.concatenate((inserts, deletes)))
        for owner, value in zip(owners, inserts.tolist()):
            owner.store.insert(value)
        missed = 0
        for owner, value in zip(owners[inserts.size :], deletes.tolist()):
            if not owner.store.remove(value):
                missed += 1
        return missed

    def _stored_values(self) -> np.ndarray:
        """Every stored item, read from the stores without touching any cache."""
        return np.fromiter(
            chain.from_iterable(node.store for node in self.network.peers()), dtype=float
        )

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        tracer = self.tracer
        network, service = self.network, self.service
        update_rng = np.random.default_rng([self.seed, 3])
        schedule_rng = np.random.default_rng([self.seed, 2])
        live = np.asarray(self.dataset.values, dtype=float)
        missed = 0
        self.values_moved = 0
        checked = dict.fromkeys(KINDS, 0)
        op = 0
        # The estimate served when the phase starts (the bootstrap refresh)
        # counts with every one adopted later.
        phase.answered += service.current.probes
        phase.requested += self.probes
        phase.rounds.append(service.current.latency_rounds)
        for cycle in range(self.sizes.ops(seconds)):
            inserts, deletes, live = self._updates(cycle, live, update_rng)
            schedule = self._schedule(schedule_rng)
            tracer.op = WRITE_OP
            t0 = time.perf_counter()
            with tracer.span("storage.update"):
                cycle_missed = self._apply_updates(inserts, deletes)
            with tracer.span("churn.round"):
                report = self.churn.run_round()
            dt = time.perf_counter() - t0
            phase.write_s.append(dt)
            phase.timed_s += dt
            missed += cycle_missed
            self.values_moved += report.values_moved
            for kind, batch in schedule:
                tracer.op = op
                before = network.stats.messages
                refreshes = service.stats.refreshes + service.stats.failed_refreshes
                current = service.current
                t0 = time.perf_counter()
                try:
                    with tracer.span("serve.batch"):
                        answer: Optional[np.ndarray] = _serve_batch(service, kind, batch)
                except Exception:  # a failed op is counted, and the loop goes on
                    answer = None
                    error = traceback.format_exc(limit=3)
                dt = time.perf_counter() - t0
                phase.op_s.append(dt)
                phase.timed_s += dt
                phase.attempted += 1
                if answer is None:
                    phase.fail(error)
                elif zero_evidence(service.current):
                    phase.fail(f"batch {op}: served a zero-evidence estimate")
                phase.messages += network.stats.messages - before
                attempts = service.stats.refreshes + service.stats.failed_refreshes - refreshes
                phase.requested += attempts * self.probes
                if service.current is not current:
                    phase.answered += service.current.probes
                    phase.rounds.append(service.current.latency_rounds)
                if answer is not None and (op // len(KINDS)) % self.check_every == 0:
                    phase.check("served==uncached", np.array_equal(answer, self._uncached(kind, batch)))
                    checked[kind] += 1
                op += 1
            truth = empirical_cdf(np.sort(self._stored_values()), presorted=True)
            phase.ks.append(ks_distance(service.current.cdf, truth, self.grid))
        phase.counters.update(
            {"write_steps": float(len(phase.write_s)), "deletes_missed": float(missed)}
        )
        phase.counters.update({f"checked.{kind}": float(n) for kind, n in checked.items()})
        return phase

    def layer_counters(self) -> dict[str, float]:
        """Serving-layer counters of the whole run, bootstrap included."""
        stats, cache = self.service.stats, self.service.cache_stats
        return {
            "cache.hit_rate": cache.hit_rate,
            "cache.evictions": float(cache.evictions),
            "serve.refreshes": float(stats.refreshes),
            "serve.checks_kept": float(stats.checks_kept),
            "churn.values_moved": float(self.values_moved),
        }


WORKLOADS = {cls.name: cls for cls in (Estimate1M, ServeChurn30K, Faults30K)}


def run_workload(
    name: str, seed: int, seconds: float, tracer: Any, sizes: Optional[Sizes] = None
) -> tuple[list[float], Phase, Any]:
    """Build inputs, set up ``sizes.setups`` times, then run the timed phase.

    Returns the set-up times, the phase, and the workload (whose network
    the caller may inspect).  Dataset generation is outside ``setup_s``.
    """
    workload = WORKLOADS[name](seed, sizes or WORKLOADS[name].FULL, tracer)
    setup_s = []
    for _ in range(workload.sizes.setups):
        workload.release()
        gc.collect()
        tracer.op = SETUP_OP
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    gc.collect()
    return setup_s, workload.run(seconds), workload
