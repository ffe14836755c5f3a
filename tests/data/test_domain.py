"""Tests for the Domain value object."""

import numpy as np
import pytest

from repro.data.domain import UNIT_DOMAIN, Domain


class TestDomain:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Domain(1.0, 1.0)
        with pytest.raises(ValueError):
            Domain(2.0, 1.0)

    def test_width(self):
        assert Domain(-1.0, 3.0).width == 4.0

    def test_contains_closed(self):
        d = Domain(0.0, 1.0)
        assert d.contains(0.0)
        assert d.contains(1.0)
        assert not d.contains(1.01)

    def test_normalize_denormalize_round_trip(self):
        d = Domain(10.0, 20.0)
        values = np.array([10.0, 15.0, 20.0])
        np.testing.assert_allclose(d.denormalize(d.normalize(values)), values)

    def test_normalize_scalar(self):
        assert Domain(0.0, 2.0).normalize(1.0) == 0.5

    def test_grid_endpoints(self):
        grid = Domain(0.0, 1.0).grid(5)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid.size == 5

    def test_grid_minimum_points(self):
        with pytest.raises(ValueError):
            Domain(0.0, 1.0).grid(1)

    def test_as_tuple(self):
        assert Domain(0.5, 1.5).as_tuple() == (0.5, 1.5)

    def test_unit_domain_constant(self):
        assert UNIT_DOMAIN.low == 0.0
        assert UNIT_DOMAIN.high == 1.0
