"""Tests for the error metrics."""

import numpy as np
import pytest

from repro.core.cdf import PiecewiseCDF
from repro.core.metrics import (
    ErrorReport,
    emd,
    evaluate_estimate,
    kl_divergence_binned,
    ks_distance,
    ks_distance_to_samples,
    l1_cdf_distance,
    l2_cdf_distance,
    total_variation_binned,
)

GRID = np.linspace(0.0, 1.0, 201)
IDENTITY = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
SHIFTED = PiecewiseCDF([0.0, 0.5, 1.0], [0.0, 0.7, 1.0])  # above the diagonal


class TestKs:
    def test_zero_for_identical(self):
        assert ks_distance(IDENTITY, IDENTITY, GRID) == 0.0

    def test_known_value(self):
        # SHIFTED is max 0.2 above the diagonal (at x=0.5: 0.7 vs 0.5).
        assert ks_distance(SHIFTED, IDENTITY, GRID) == pytest.approx(0.2, abs=0.01)

    def test_symmetry(self):
        assert ks_distance(SHIFTED, IDENTITY, GRID) == ks_distance(IDENTITY, SHIFTED, GRID)

    def test_to_samples_exact(self):
        # 4 samples at 0.125, 0.375, 0.625, 0.875 vs uniform CDF: max gap 0.125.
        samples = [0.125, 0.375, 0.625, 0.875]
        assert ks_distance_to_samples(IDENTITY, samples) == pytest.approx(0.125)

    def test_to_samples_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance_to_samples(IDENTITY, [])

    def test_to_samples_detects_shift(self):
        rng = np.random.default_rng(1)
        shifted_samples = np.clip(rng.uniform(size=3000) ** 2, 0, 1)
        assert ks_distance_to_samples(IDENTITY, shifted_samples) > 0.2


class TestIntegralDistances:
    def test_l1_zero_for_identical(self):
        assert l1_cdf_distance(IDENTITY, IDENTITY, GRID) == 0.0

    def test_l1_known_value(self):
        # Triangle of height 0.2 over width 1 -> area 0.1, normalised /1.
        assert l1_cdf_distance(SHIFTED, IDENTITY, GRID) == pytest.approx(0.1, abs=0.01)

    def test_l2_upper_bounds_l1(self):
        # Cauchy-Schwarz: L1 (mean abs) <= L2 (rms).
        assert l2_cdf_distance(SHIFTED, IDENTITY, GRID) >= l1_cdf_distance(
            SHIFTED, IDENTITY, GRID
        )

    def test_emd_equals_l1_times_width(self):
        wide_grid = np.linspace(0.0, 2.0, 201)
        a = PiecewiseCDF([0.0, 2.0], [0.0, 1.0])
        b = PiecewiseCDF([0.0, 1.0, 2.0], [0.0, 0.9, 1.0])
        assert emd(a, b, wide_grid) == pytest.approx(
            2.0 * l1_cdf_distance(a, b, wide_grid)
        )

    def test_degenerate_grid_rejected(self):
        with pytest.raises(IndexError):
            l1_cdf_distance(IDENTITY, IDENTITY, np.array([]))


class TestBinnedDivergences:
    def test_kl_zero_for_identical(self):
        assert kl_divergence_binned(IDENTITY, IDENTITY, GRID) == pytest.approx(0.0, abs=1e-9)

    def test_kl_positive_for_different(self):
        assert kl_divergence_binned(SHIFTED, IDENTITY, GRID) > 0.0

    def test_tv_bounds(self):
        tv = total_variation_binned(SHIFTED, IDENTITY, GRID)
        assert 0.0 < tv < 1.0

    def test_tv_identical_zero(self):
        assert total_variation_binned(IDENTITY, IDENTITY, GRID) == pytest.approx(0.0)

    def test_zero_mass_rejected(self):
        flat = PiecewiseCDF([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            kl_divergence_binned(IDENTITY, flat, GRID)


class TestEvaluateEstimate:
    def test_bundle_contents(self):
        report = evaluate_estimate(SHIFTED, IDENTITY, (0.0, 1.0))
        assert isinstance(report, ErrorReport)
        assert report.ks == pytest.approx(0.2, abs=0.01)

    def test_perfect_estimate(self):
        report = evaluate_estimate(IDENTITY, IDENTITY, (0.0, 1.0))
        assert report.ks == 0.0
        assert report.l1 == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_estimate(IDENTITY, IDENTITY, (1.0, 0.0))
        with pytest.raises(ValueError):
            evaluate_estimate(IDENTITY, IDENTITY, (0.0, 1.0), grid_points=2)

    def test_works_with_analytic_truth(self):
        from repro.data.distributions import TruncatedNormal

        dist = TruncatedNormal()
        grid_cdf = PiecewiseCDF(
            np.linspace(0, 1, 300), np.asarray(dist.cdf(np.linspace(0, 1, 300)))
        )
        report = evaluate_estimate(grid_cdf, dist.cdf, (0.0, 1.0))
        assert report.ks < 0.01
