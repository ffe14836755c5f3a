"""Tests for the PiecewiseCDF machinery — the core data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdf import PiecewiseCDF, empirical_cdf


def monotone_cdf_points(draw):
    """Strategy helper: strictly increasing xs, non-decreasing fs in [0,1]."""
    n = draw(st.integers(min_value=2, max_value=20))
    xs = sorted(draw(st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=n, max_size=n, unique=True,
    )))
    raw = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=n, max_size=n,
    ))
    fs = np.maximum.accumulate(np.sort(raw))
    return np.asarray(xs), fs


cdf_points = st.builds(lambda: None).flatmap(
    lambda _: st.composite(lambda draw: monotone_cdf_points(draw))()
)


class TestConstruction:
    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            PiecewiseCDF([0.0, 1.0], [0.5])

    def test_requires_increasing_xs(self):
        with pytest.raises(ValueError):
            PiecewiseCDF([0.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            PiecewiseCDF([1.0, 0.0], [0.0, 1.0])

    def test_requires_monotone_fs(self):
        with pytest.raises(ValueError):
            PiecewiseCDF([0.0, 1.0], [0.5, 0.1])

    def test_tolerates_float_jitter(self):
        cdf = PiecewiseCDF([0.0, 1.0, 2.0], [0.3, 0.3 - 1e-12, 1.0])
        assert np.all(np.diff(cdf.fs) >= 0)

    def test_requires_known_kind(self):
        with pytest.raises(ValueError):
            PiecewiseCDF([0.0, 1.0], [0.0, 1.0], kind="spline")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseCDF([], [])


class TestEvaluation:
    def test_step_semantics(self):
        cdf = PiecewiseCDF([1.0, 2.0, 3.0], [0.2, 0.5, 1.0], kind="step")
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.2      # right-continuous: jump at the point
        assert cdf(1.5) == 0.2
        assert cdf(2.0) == 0.5
        assert cdf(10.0) == 1.0

    def test_linear_semantics(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0], kind="linear")
        assert cdf(0.5) == pytest.approx(0.5)
        assert cdf(-1.0) == 0.0
        assert cdf(2.0) == 1.0

    def test_vectorised_evaluation(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        out = cdf(np.array([0.0, 0.25, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.25, 1.0])

    def test_scalar_in_scalar_out(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        assert isinstance(cdf(0.5), float)


class TestEmpirical:
    def test_from_samples_basic(self):
        cdf = PiecewiseCDF.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf(1.0) == 0.25
        assert cdf(2.5) == 0.5
        assert cdf(4.0) == 1.0

    def test_from_samples_duplicates(self):
        cdf = PiecewiseCDF.from_samples([1.0, 1.0, 2.0])
        assert cdf(1.0) == pytest.approx(2 / 3)

    def test_from_samples_empty_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseCDF.from_samples([])

    def test_alias(self):
        cdf = empirical_cdf([1.0, 2.0])
        assert cdf.kind == "step"


class TestInverse:
    def test_step_inverse_is_min_preimage(self):
        cdf = PiecewiseCDF([1.0, 2.0, 3.0], [0.2, 0.5, 1.0], kind="step")
        assert cdf.inverse(0.1) == 1.0
        assert cdf.inverse(0.2) == 1.0
        assert cdf.inverse(0.21) == 2.0
        assert cdf.inverse(1.0) == 3.0

    def test_linear_inverse_interpolates(self):
        cdf = PiecewiseCDF([0.0, 2.0], [0.0, 1.0], kind="linear")
        assert cdf.inverse(0.25) == pytest.approx(0.5)

    def test_inverse_clamps(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        assert cdf.inverse(-0.5) == 0.0
        assert cdf.inverse(1.5) == 1.0

    def test_galois_connection_linear(self):
        """F(F^{-1}(u)) == u wherever F is continuous and strictly rising."""
        cdf = PiecewiseCDF([0.0, 0.3, 1.0], [0.0, 0.6, 1.0], kind="linear")
        for u in np.linspace(0.01, 0.99, 21):
            assert cdf(cdf.inverse(u)) == pytest.approx(u, abs=1e-9)

    def test_inverse_monotone(self):
        cdf = PiecewiseCDF.from_samples(np.random.default_rng(0).uniform(size=100))
        us = np.linspace(0, 1, 50)
        xs = np.asarray(cdf.inverse(us))
        assert np.all(np.diff(xs) >= 0)

    def test_flat_region_takes_left_endpoint(self):
        # F flat at 0.5 between x=1 and x=2.
        cdf = PiecewiseCDF([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 1.0], kind="linear")
        assert cdf.inverse(0.5) == pytest.approx(1.0)


class TestSampling:
    def test_sample_count_and_range(self, rng):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        samples = cdf.sample(500, rng)
        assert samples.size == 500
        assert samples.min() >= 0.0 and samples.max() <= 1.0
        assert cdf.sample(0, rng).size == 0

    def test_sample_follows_cdf(self, rng):
        from scipy import stats as scipy_stats

        cdf = PiecewiseCDF([0.0, 0.5, 1.0], [0.0, 0.8, 1.0], kind="linear")
        samples = cdf.sample(4000, rng)
        result = scipy_stats.kstest(samples, lambda x: np.asarray(cdf(x)))
        assert result.pvalue > 0.001

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ValueError):
            PiecewiseCDF([0.0, 1.0], [0.0, 1.0]).sample(-1, rng)


def mixture(components, weights, kind="linear"):
    """``PiecewiseCDF.mixture`` over the components' concatenated runs."""
    sizes = [c.xs.size for c in components]
    return PiecewiseCDF.mixture(
        np.concatenate([c.xs for c in components] + [np.empty(0)]),
        np.concatenate([c.fs for c in components] + [np.empty(0)]),
        np.cumsum([0] + sizes),
        weights,
        kind=kind,
    )


class TestMixture:
    def test_two_component_mixture(self):
        a = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        b = PiecewiseCDF([1.0, 2.0], [0.0, 1.0])
        mix = mixture([a, b], [0.5, 0.5])
        assert mix(1.0) == pytest.approx(0.5)
        assert mix(2.0) == pytest.approx(1.0)

    def test_weights_normalised(self):
        a = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        mix = mixture([a, a], [2.0, 2.0])
        assert mix(1.0) == pytest.approx(1.0)

    def test_zero_weight_component_ignored(self):
        a = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        b = PiecewiseCDF([5.0, 6.0], [0.0, 1.0])
        mix = mixture([a, b], [1.0, 0.0])
        assert mix(1.0) == pytest.approx(1.0)

    def test_validation(self):
        a = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            mixture([], [])
        with pytest.raises(ValueError):
            mixture([a], [1.0, 2.0])
        with pytest.raises(ValueError):
            mixture([a], [-1.0])
        with pytest.raises(ValueError):
            mixture([a, a], [0.0, 0.0])

    def test_step_mixture_kind(self):
        a = PiecewiseCDF([0.0, 1.0], [0.5, 1.0], kind="step")
        mix = mixture([a, a], [0.5, 0.5], kind="step")
        assert mix.kind == "step"
        assert mix(0.5) == pytest.approx(0.5)

    @given(
        st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=6, unique=True),
        st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=6, unique=True),
        st.sampled_from(["linear", "step"]),
    )
    def test_matches_evaluating_every_component_everywhere(self, left, right, kind):
        components = [
            PiecewiseCDF(sorted(xs), np.linspace(0.2, 1.0, len(xs)), kind=kind)
            for xs in (left, right)
        ]
        weights = [0.3, 0.7]
        grid = np.unique(np.concatenate([c.xs for c in components]))
        expected = np.zeros_like(grid)
        for component, w in zip(components, weights):
            expected += w * component(grid)
        mix = mixture(components, weights, kind=kind)
        assert mix.xs.tobytes() == grid.tobytes()
        assert mix.fs.tobytes() == np.maximum.accumulate(np.clip(expected, 0, 1)).tobytes()


class TestDerived:
    def test_total_mass(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 0.8])
        assert cdf.total_mass == pytest.approx(0.8)

    def test_density_on_grid(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        grid = np.linspace(0, 1, 11)
        density = cdf.density_on_grid(grid)
        np.testing.assert_allclose(density, np.ones(10))

    def test_density_grid_validation(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            cdf.density_on_grid(np.array([0.0]))
        with pytest.raises(ValueError):
            cdf.density_on_grid(np.array([1.0, 0.0]))

    def test_mass_between(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        assert cdf.mass_between(0.25, 0.75) == pytest.approx(0.5)

    def test_mass_between_inverted_rejected(self):
        cdf = PiecewiseCDF([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            cdf.mass_between(0.75, 0.25)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_empirical_cdf_invariants(self, data):
        cdf = PiecewiseCDF.from_samples(data)
        grid = np.linspace(min(data) - 1, max(data) + 1, 50)
        values = np.asarray(cdf(grid))
        assert np.all(np.diff(values) >= -1e-12)
        assert values[0] >= 0 and values[-1] == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=60,
            unique=True,
        ),
        u=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    )
    def test_inverse_is_generalised_inverse(self, data, u):
        """inverse(u) is the smallest sample x with F(x) >= u."""
        cdf = PiecewiseCDF.from_samples(data)
        x = float(cdf.inverse(u))
        assert float(cdf(x)) >= u - 1e-12
        # Any strictly smaller sample point has F < u.
        smaller = [s for s in data if s < x]
        if smaller:
            assert float(cdf(max(smaller))) < u
