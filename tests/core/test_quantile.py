"""Tests for quantile helpers."""

import numpy as np
import pytest

from repro.core.cdf import PiecewiseCDF
from repro.core.quantile import (
    equi_depth_boundaries,
    median,
    quantile,
    quantiles,
)

UNIFORM = PiecewiseCDF([0.0, 2.0], [0.0, 1.0], kind="linear")


class TestQuantile:
    def test_uniform_quantiles(self):
        assert quantile(UNIFORM, 0.5) == pytest.approx(1.0)
        assert quantile(UNIFORM, 0.25) == pytest.approx(0.5)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            quantile(UNIFORM, 1.5)
        with pytest.raises(ValueError):
            quantiles(UNIFORM, [0.5, -0.1])

    def test_batch_matches_single(self):
        levels = [0.1, 0.5, 0.9]
        batch = quantiles(UNIFORM, levels)
        np.testing.assert_allclose(batch, [quantile(UNIFORM, q) for q in levels])

    def test_median(self):
        assert median(UNIFORM) == pytest.approx(1.0)


class TestEquiDepth:
    def test_uniform_boundaries_even(self):
        boundaries = equi_depth_boundaries(UNIFORM, 4)
        np.testing.assert_allclose(boundaries, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_parts_validated(self):
        with pytest.raises(ValueError):
            equi_depth_boundaries(UNIFORM, 0)

    def test_equal_mass_property(self):
        rng = np.random.default_rng(0)
        cdf = PiecewiseCDF.from_samples(rng.normal(0.0, 1.0, 2000))
        boundaries = equi_depth_boundaries(cdf, 8)
        masses = np.diff(np.asarray(cdf(boundaries)))
        np.testing.assert_allclose(masses, np.full(8, 1 / 8), atol=0.01)

    def test_boundaries_monotone(self):
        cdf = PiecewiseCDF.from_samples(np.random.default_rng(1).uniform(size=500))
        boundaries = equi_depth_boundaries(cdf, 10)
        assert np.all(np.diff(boundaries) >= 0)
