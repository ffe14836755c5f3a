"""F20 — robust estimation under combined faults and pollution attack.

The head-to-head the fault plane was built for: four estimator families
run through identical fault and attack schedules — the trusting HT probe
estimator, the hardened probe estimator (neighbourhood density screen
composed with winsorized HT weights from :mod:`repro.core.robust`),
the Spectra-style mass-conserving epidemic
(:class:`~repro.core.baselines.spectra.SpectraEstimator`), and the
push-sum gossip baseline whose in-flight mass a dropped message
destroys.  Measured per cell: worst-case and average CDF error, message
cost, and convergence rounds, so the robustness each design buys is
priced in messages next to the accuracy it saves.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import PushSumHistogramEstimator, SpectraEstimator
from repro.core.byzantine import ByzantineBehavior, corrupt_network
from repro.core.cdf import empirical_cdf
from repro.core.estimator import DistributionFreeEstimator
from repro.data.workload import build_dataset
from repro.experiments.common import parallel_map, scale_int
from repro.experiments.config import DEFAULTS
from repro.experiments.results import ResultTable
from repro.ring.faults import plane_from_profile
from repro.ring.network import RingNetwork

EXPERIMENT_ID = "F20"
TITLE = "Robust estimation: probes vs. epidemics under faults and liars"
EXPECTATION = (
    "Fault-free with no liars, every estimator is accurate and trusting "
    "HT is cheapest.  Add 10-20% liars and the trusting estimator is "
    "dragged to the attack value while robust-HT (density screen + "
    "winsorized weights) and the screened Spectra epidemic stay near "
    "clean accuracy.  Under the heavy fault profile (loss + stalls + "
    "partition), probe estimators lose the evidence behind the partition "
    "but degrade gracefully; Spectra's mass-conserving exchanges and "
    "multi-entry readout hold the lowest error, while push-sum — which "
    "destroys in-flight mass on every drop — collapses.  The price is "
    "message cost: epidemics spend orders of magnitude more than probes."
)

#: Fault severities swept (profile name or None), in increasing order.
FAULT_PROFILES: tuple[str | None, ...] = (None, "heavy")
LIAR_FRACTIONS = (0.0, 0.10, 0.20)
ATTACK_VALUE = 0.9
#: Shared round budget for both epidemic baselines.  Robust-HT composes
#: the neighbourhood density screen (catches blatant isolated liars) with
#: winsorized HT weights (clamps any screen survivor — under the repo's
#: order-preserving placement, rank-trimming would instead discard the
#: densest *honest* replies and erase the distribution's centre; see
#: :mod:`repro.core.robust`).
EPIDEMIC_ROUNDS = 40
WINSORIZE_FRACTION = 0.10
SCREEN_RATIO = 20.0


def _estimators() -> list[tuple[str, object]]:
    """The contenders, rebuilt per block so blocks stay self-contained."""
    probes = DEFAULTS.probes
    return [
        ("trusting-ht", DistributionFreeEstimator(probes=probes)),
        (
            "robust-ht",
            DistributionFreeEstimator(
                probes=probes,
                trim_density_ratio=SCREEN_RATIO,
                robust="winsorized",
                trim_fraction=WINSORIZE_FRACTION,
            ),
        ),
        (
            "spectra",
            SpectraEstimator(rounds=EPIDEMIC_ROUNDS, trim_ratio=SCREEN_RATIO),
        ),
        ("push-sum", PushSumHistogramEstimator(rounds=EPIDEMIC_ROUNDS)),
    ]


def _run_cell_block(
    task: tuple[str | None, float, int, int, int, int],
) -> list[dict[str, object]]:
    """All estimator rows for one (fault profile, liar fraction) cell.

    Self-contained unit of parallelism: the block builds its own fixture,
    attack, and fault plane from explicit seeds, so the table is
    bit-identical whether blocks run serially or across worker processes.
    """
    profile, fraction, n_peers, n_items, repetitions, seed = task
    dataset = build_dataset(DEFAULTS.default_distribution, n_items, seed=seed)
    domain = dataset.distribution.domain.as_tuple()
    grid = np.linspace(*domain, DEFAULTS.grid_points)
    attack_value = domain[0] + ATTACK_VALUE * (domain[1] - domain[0])
    behavior = ByzantineBehavior(count_multiplier=100.0, fake_mass_at=attack_value)

    network = RingNetwork.create(n_peers, domain=domain, seed=seed + 1)
    network.load_data(dataset.values)
    network.reset_stats()
    if fraction > 0.0:
        corrupt_network(
            network, fraction, behavior, rng=np.random.default_rng(seed + 41)
        )
    # Truth is the honest data — the lie exists only in replies/synopses.
    truth_values = np.asarray(
        empirical_cdf(network.all_values(), presorted=True)(grid), dtype=float
    )

    rows: list[dict[str, object]] = []
    for name, estimator in _estimators():
        max_errors, avg_errors, messages, coverages, rounds = [], [], [], [], []
        for rep in range(repetitions):
            # Every contender faces the exact same fault realisation per
            # repetition: the delivery RNG (the network's own generator,
            # which draws every loss outcome) is stateful, so without a
            # reset each estimator would inherit whatever stream position
            # the previous one left behind — differences in a column
            # would be luck, not the estimator.
            network.rng = np.random.default_rng(seed * 101 + rep)
            if profile is not None:
                network.install_faults(
                    plane_from_profile(
                        profile, seed=seed + 97, ring_size=network.space.size
                    ),
                    replace=True,
                )
            estimate = estimator.estimate(  # type: ignore[attr-defined]
                network, rng=np.random.default_rng(seed * 37 + rep)
            )
            deltas = np.abs(np.asarray(estimate.cdf(grid), dtype=float) - truth_values)
            max_errors.append(float(deltas.max()))
            avg_errors.append(float(deltas.mean()))
            messages.append(estimate.messages)
            coverages.append(estimate.coverage)
            rounds.append(estimate.latency_rounds)
        rows.append(
            dict(
                faults=profile or "none",
                liar_fraction=fraction,
                estimator=name,
                max_err=float(np.mean(max_errors)),
                avg_err=float(np.mean(avg_errors)),
                messages=float(np.mean(messages)),
                rounds=float(np.mean(rounds)),
                coverage=float(np.mean(coverages)),
            )
        )
    return rows


def run(scale: float = 1.0, seed: int = 0, workers: int = 1) -> ResultTable:
    """Sweep estimators over the fault-severity x liar-fraction grid."""
    table = ResultTable(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        expectation=EXPECTATION,
        columns=[
            "faults",
            "liar_fraction",
            "estimator",
            "max_err",
            "avg_err",
            "messages",
            "rounds",
            "coverage",
        ],
    )
    n_peers = scale_int(512, scale, minimum=32)
    n_items = scale_int(50_000, scale, minimum=2_000)
    repetitions = scale_int(DEFAULTS.repetitions, scale, minimum=2)

    tasks = [
        (profile, fraction, n_peers, n_items, repetitions, seed)
        for profile in FAULT_PROFILES
        for fraction in LIAR_FRACTIONS
    ]
    for rows in parallel_map(_run_cell_block, tasks, workers=workers):
        for row in rows:
            table.add_row(**row)
    return table
