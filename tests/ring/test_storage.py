"""Tests for the per-peer local store."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ring.storage import LocalStore

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=100
)


class TestBasics:
    def test_empty(self):
        store = LocalStore()
        assert len(store) == 0
        assert store.count == 0
        assert list(store) == []

    def test_init_sorts(self):
        store = LocalStore([3.0, 1.0, 2.0])
        assert list(store) == [1.0, 2.0, 3.0]

    def test_contains(self):
        store = LocalStore([1.0, 2.0])
        assert 1.0 in store
        assert 1.5 not in store

    def test_insert_keeps_order(self):
        store = LocalStore([1.0, 3.0])
        store.insert(2.0)
        assert list(store) == [1.0, 2.0, 3.0]

    def test_insert_many(self):
        store = LocalStore([5.0])
        store.insert_many([1.0, 9.0, 3.0])
        assert list(store) == [1.0, 3.0, 5.0, 9.0]

    def test_insert_many_empty_noop(self):
        store = LocalStore([1.0])
        store.insert_many([])
        assert store.count == 1

    def test_remove_present(self):
        store = LocalStore([1.0, 2.0, 2.0])
        assert store.remove(2.0)
        assert list(store) == [1.0, 2.0]

    def test_remove_absent(self):
        store = LocalStore([1.0])
        assert not store.remove(5.0)
        assert store.count == 1

    def test_values_is_immutable_view(self):
        store = LocalStore([1.0])
        assert store.values() == (1.0,)

    def test_as_array(self):
        store = LocalStore([2.0, 1.0])
        np.testing.assert_array_equal(store.as_array(), [1.0, 2.0])


class TestRangeOps:
    def test_pop_slice(self):
        store = LocalStore([1.0, 2.0, 3.0, 4.0])
        moved = store.pop_slice(1, 3)
        assert moved == [2.0, 3.0]
        assert list(store) == [1.0, 4.0]
        assert store.pop_slice(1, 1) == []
        with pytest.raises(IndexError):
            store.pop_slice(1, 3)

    def test_pop_all(self):
        store = LocalStore([1.0, 2.0])
        assert store.pop_all() == [1.0, 2.0]
        assert store.count == 0

    def test_count_range(self):
        store = LocalStore([1.0, 2.0, 3.0])
        assert store.values_in_range(1.0, 3.0) == [1.0, 2.0]   # [1, 3) excludes 3
        assert len(store.values_in_range(0.0, 10.0)) == 3


class TestRankQueries:
    def test_rank_of(self):
        store = LocalStore([1.0, 2.0, 2.0, 3.0])
        assert store.rank_of(2.0) == 1
        assert store.rank_of(0.5) == 0
        assert store.rank_of(10.0) == 4

    def test_kth(self):
        store = LocalStore([3.0, 1.0, 2.0])
        assert store.kth(0) == 1.0
        assert store.kth(2) == 3.0

    def test_kth_out_of_range(self):
        store = LocalStore([1.0])
        with pytest.raises(IndexError):
            store.kth(1)

    def test_min_max(self):
        store = LocalStore([3.0, 1.0])
        assert store.min() == 1.0
        assert store.max() == 3.0

    def test_min_empty_raises(self):
        with pytest.raises(ValueError):
            LocalStore().min()
        with pytest.raises(ValueError):
            LocalStore().max()


class TestHistogram:
    def test_histogram_totals(self):
        store = LocalStore([0.1, 0.2, 0.8])
        counts = store.histogram(0.0, 1.0, 4)
        assert counts.sum() == 3
        assert counts[0] == 2 and counts[3] == 1

    def test_histogram_clamps_outside(self):
        store = LocalStore([-1.0, 2.0])
        counts = store.histogram(0.0, 1.0, 2)
        assert counts.tolist() == [1, 1]

    def test_histogram_range_excludes_outside(self):
        store = LocalStore([-1.0, 0.5, 2.0])
        counts = store.histogram_range(0.0, 1.0, 2)
        assert counts.sum() == 1

    def test_histogram_invalid_args(self):
        store = LocalStore()
        with pytest.raises(ValueError):
            store.histogram(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            store.histogram(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            store.histogram_range(1.0, 1.0, 4)

    def test_histogram_empty_store(self):
        counts = LocalStore().histogram(0.0, 1.0, 8)
        assert counts.sum() == 0
        assert counts.size == 8

    @given(values_strategy)
    def test_histogram_conserves_count(self, values):
        store = LocalStore(values)
        counts = store.histogram(0.0, 1.0000001, 7)
        assert counts.sum() == len(values)

    @given(values_strategy)
    def test_sorted_invariant(self, values):
        store = LocalStore(values)
        listed = list(store)
        assert listed == sorted(listed)


class TestCachedViews:
    """values() is a cached tuple; as_array() is the live backing array."""

    def test_values_cached_until_mutation(self):
        store = LocalStore([0.3, 0.1, 0.2])
        first = store.values()
        assert store.values() is first
        assert first == (0.1, 0.2, 0.3)
        store.insert(0.15)
        second = store.values()
        assert second is not first
        assert second == (0.1, 0.15, 0.2, 0.3)

    def test_values_are_python_floats(self):
        store = LocalStore([0.5])
        assert all(type(v) is float for v in store.values())

    def test_remove_and_pop_invalidate(self):
        store = LocalStore([0.1, 0.2, 0.3, 0.4])
        first = store.values()
        assert store.remove(0.2)
        assert store.values() is not first
        second = store.values()
        store.pop_slice(0, 2)
        assert store.values() is not second
        assert store.values() == (0.4,)

    def test_version_counts_mutations(self):
        store = LocalStore()
        v0 = store.version
        store.insert(0.5)
        store.insert_many([0.1, 0.9])
        store.pop_all()
        assert store.version == v0 + 3
