"""Tests for order-preserving hashing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ring.hashing import OrderPreservingHash
from repro.ring.identifier import IdentifierSpace

SPACE = IdentifierSpace(64)


class TestOrderPreservingHash:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            OrderPreservingHash(SPACE, 1.0, 1.0)

    def test_edges(self):
        h = OrderPreservingHash(SPACE, 0.0, 1.0)
        assert h(0.0) == 0
        assert h(1.0) == SPACE.size - 1  # top clamps into the last bucket

    def test_clamping(self):
        h = OrderPreservingHash(SPACE, 0.0, 1.0)
        assert h(-5.0) == 0
        assert h(7.0) == SPACE.size - 1

    def test_monotone(self):
        h = OrderPreservingHash(SPACE, -2.0, 3.0)
        values = np.linspace(-2.0, 3.0, 500)
        idents = [h(float(v)) for v in values]
        assert all(a <= b for a, b in zip(idents, idents[1:]))

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_to_value_near_inverse(self, u):
        h = OrderPreservingHash(SPACE, 0.0, 1.0)
        ident = h(u)
        recovered = h.to_value(ident)
        # to_value returns the left edge of the ident's value bucket.
        assert abs(recovered - u) < 1e-9

    def test_nonunit_domain(self):
        h = OrderPreservingHash(SPACE, 100.0, 200.0)
        mid = h(150.0)
        assert abs(mid / SPACE.size - 0.5) < 1e-12
