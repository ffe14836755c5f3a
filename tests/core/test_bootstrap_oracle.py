"""The batched bootstrap matches the per-replicate scalar loop exactly.

:func:`repro.core.confidence.bootstrap_confidence_band` draws every
replicate's resample in one ``(replicates, count)`` call and reconstructs
all of them as rows of one chosen-segment mask.  The oracle in
``tests/core/reference_assembly.py`` draws ``count`` indices per replicate
and runs the scalar reconstruction on each resample.  ``lower``, ``upper``
and the generator's state after the call must be identical — the last one
pins that the batched draw reproduces the per-replicate stream on the
installed NumPy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import confidence
from repro.core.cdf_sampling import collect_probes
from repro.core.confidence import ConfidenceBand, bootstrap_confidence_band
from repro.core.estimate import DegradedEstimate
from repro.core.estimator import DistributionFreeEstimator
from repro.core.replies import ProbeReplies
from repro.ring.faults import RetryPolicy, plane_from_profile

from tests.conftest import make_loaded_network
from tests.core.reference_assembly import peer_summary, reference_band, to_summaries


def assert_band_matches_oracle(summaries, domain, seed, **kwargs):
    batched_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    replies = ProbeReplies.from_summaries(summaries)
    band = bootstrap_confidence_band(replies, domain, rng=batched_rng, **kwargs)
    lower, upper = reference_band(summaries, domain, rng=oracle_rng, **kwargs)
    assert band.lower.tobytes() == lower.tobytes()
    assert band.upper.tobytes() == upper.tobytes()
    assert batched_rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.fixture(scope="module")
def probed():
    network, _ = make_loaded_network(n_peers=96, n_items=6_000)
    results = collect_probes(network, 48, buckets=8, rng=np.random.default_rng(0))
    return network.domain, to_summaries(results)


@pytest.mark.parametrize("mode", ["linear", "log"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_band_matches_per_replicate_loop(probed, mode, seed):
    domain, summaries = probed
    assert_band_matches_oracle(
        summaries, domain, seed, replicates=60, gap_interpolation=mode
    )


@pytest.mark.parametrize("count", [1, 2, 3, 7, 64, 129, 255])
def test_batched_draw_reproduces_per_replicate_stream(probed, count):
    domain, summaries = probed
    sample = (summaries * 6)[:count]
    assert_band_matches_oracle(sample, domain, count, replicates=5, grid_points=16)


def test_equi_depth_band_matches_per_replicate_loop():
    network, _ = make_loaded_network("zipf", n_peers=48, n_items=2_000)
    results = collect_probes(
        network, 24, buckets=6, rng=np.random.default_rng(3), synopsis_kind="equi-depth"
    )
    summaries = to_summaries(results)
    for mode in ("linear", "log"):
        assert_band_matches_oracle(
            summaries, network.domain, 4, replicates=40, gap_interpolation=mode
        )


class TestEmptyReplicates:
    """A replicate drawing only empty peers copies the previous curve."""

    EMPTY = [peer_summary(1, [(0.0, 0.3)], [[0, 0]]), peer_summary(2, [(0.6, 0.8)], [[0, 0]])]
    FULL = peer_summary(3, [(0.3, 0.6)], [[4, 1]])

    def _all_empty(self, summaries, seed, replicates):
        picks = np.random.default_rng(seed).integers(
            0, len(summaries), size=(replicates, len(summaries))
        )
        return [all(summaries[i].local_count == 0 for i in row) for row in picks]

    @pytest.mark.parametrize("first_empty", [True, False])
    def test_copy_previous_curve(self, first_empty):
        summaries = self.EMPTY + [self.FULL]
        replicates = 12
        # The first seed whose draws exercise the wanted path: an all-empty
        # replicate at rep 0, or one only after a reconstructed replicate.
        for seed in range(200):
            empty = self._all_empty(summaries, seed, replicates)
            if empty[0] == first_empty and any(empty[1:]) and not all(empty):
                break
        else:
            pytest.fail("no seed draws the wanted replicate pattern")
        assert_band_matches_oracle(summaries, (0.0, 1.0), seed, replicates=replicates)

    def test_every_replicate_empty_gives_zero_band(self):
        band = bootstrap_confidence_band(
            ProbeReplies.from_summaries(self.EMPTY), (0.0, 1.0), replicates=4
        )
        assert not band.lower.any() and not band.upper.any()
        assert_band_matches_oracle(self.EMPTY, (0.0, 1.0), 0, replicates=4)


class TestIrregularReplies:
    def test_tied_segment_starts_follow_first_draw_order(self):
        # A one-ulp widened segment ties with its neighbour's start; the
        # scalar reconstruction orders tied segments by the peer's first
        # draw in the replicate, and fails on some of those orders.
        tip = float(np.nextafter(0.5, np.inf))
        summaries = [
            peer_summary(1, [(0.5, tip)], [[1, 1]]),
            peer_summary(2, [(0.5, 0.75)], [[1, 2]]),
            peer_summary(3, [(0.1, 0.3)], [[2, 2]]),
            peer_summary(4, [(0.8, 1.0), (0.0, 0.05)], [[1, 0], [3, 1]]),
        ]
        for seed in range(4):
            assert_band_matches_oracle(summaries, (0.0, 1.0), seed, replicates=30)

    def test_replaced_reply_keeps_last_draw(self):
        # Two reply objects for one peer: each replicate keeps the one it
        # drew last.
        first = peer_summary(1, [(0.2, 0.4)], [[3, 1]])
        second = peer_summary(1, [(0.2, 0.4)], [[0, 5]])
        summaries = [first, peer_summary(2, [(0.6, 0.9)], [[2, 2]]), second, first]
        for seed in range(4):
            assert_band_matches_oracle(summaries, (0.0, 1.0), seed, replicates=30)


def test_degraded_estimate_band_matches_scalar_bootstrap(monkeypatch):
    """The band a faulted estimate carries is the scalar loop's band."""

    def estimate():
        network, _ = make_loaded_network(n_peers=128, n_items=4_000, seed=11)
        network.install_faults(plane_from_profile("light", seed=5))
        rng = np.random.default_rng(8)
        estimator = DistributionFreeEstimator(probes=48, retry=RetryPolicy.DEFAULT)
        return estimator.estimate(network, rng=rng), rng

    def scalar_bootstrap(evidence, domain, level=0.9, replicates=200,
                         grid_points=128, rng=None, gap_interpolation="linear"):
        # The estimator hands over its reply batch; the oracle reads records.
        lower, upper = reference_band(
            to_summaries(evidence), domain, level, replicates, grid_points, rng,
            gap_interpolation,
        )
        return ConfidenceBand(
            grid=np.linspace(domain[0], domain[1], grid_points),
            lower=lower,
            upper=upper,
            level=level,
            replicates=replicates,
        )

    batched, batched_rng = estimate()
    monkeypatch.setattr(confidence, "bootstrap_confidence_band", scalar_bootstrap)
    scalar, scalar_rng = estimate()
    assert isinstance(batched, DegradedEstimate) and batched.confidence is not None
    assert isinstance(scalar, DegradedEstimate) and scalar.confidence is not None
    assert batched.confidence.lower.tobytes() == scalar.confidence.lower.tobytes()
    assert batched.confidence.upper.tobytes() == scalar.confidence.upper.tobytes()
    assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
