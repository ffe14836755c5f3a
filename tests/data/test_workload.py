"""Tests for dataset builders, update streams, and query workloads."""

import numpy as np
import pytest

from repro.data.distributions import make_distribution
from repro.data.workload import (
    RangeQuery,
    RangeQueryWorkload,
    UpdateStream,
    build_dataset,
)


class TestBuildDataset:
    def test_by_name(self):
        data = build_dataset("uniform", 100, seed=1)
        assert data.size == 100
        assert data.distribution.name == "uniform"

    def test_by_object(self):
        dist = make_distribution("normal")
        data = build_dataset(dist, 50, seed=1)
        assert data.distribution is dist

    def test_params_with_object_rejected(self):
        dist = make_distribution("normal")
        with pytest.raises(ValueError):
            build_dataset(dist, 50, seed=1, mean=0.3)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            build_dataset("uniform", -1)

    def test_seed_reproducible(self):
        a = build_dataset("zipf", 200, seed=9)
        b = build_dataset("zipf", 200, seed=9)
        np.testing.assert_array_equal(a.values, b.values)


class TestUpdateStream:
    def test_insert_only_grows(self):
        data = build_dataset("uniform", 100, seed=1)
        stream = UpdateStream(data, insert_fraction=1.0, seed=1)
        ops = list(stream.ops(50))
        assert all(op.kind == "insert" for op in ops)

    def test_delete_only_shrinks(self):
        data = build_dataset("uniform", 100, seed=1)
        stream = UpdateStream(data, insert_fraction=0.0, seed=1)
        ops = list(stream.ops(40))
        assert all(op.kind == "delete" for op in ops)

    def test_deletes_remove_live_items(self):
        data = build_dataset("uniform", 20, seed=1)
        stream = UpdateStream(data, insert_fraction=0.0, seed=2)
        original = set(float(v) for v in data.values)
        for op in stream.ops(5):
            assert op.value in original

    def test_empty_live_set_forces_insert(self):
        data = build_dataset("uniform", 1, seed=1)
        stream = UpdateStream(data, insert_fraction=0.0, seed=3)
        ops = list(stream.ops(3))
        # After deleting the only item, further ops must insert.
        kinds = [op.kind for op in ops]
        assert kinds[0] == "delete"
        assert "insert" in kinds[1:]

    def test_drift_distribution_used_for_inserts(self):
        data = build_dataset("uniform", 10, seed=1)
        drift = make_distribution("normal", mean=0.9, std=0.01)
        stream = UpdateStream(data, insert_fraction=1.0, insert_distribution=drift, seed=4)
        values = [op.value for op in stream.ops(200)]
        assert np.mean(values) > 0.8

    def test_invalid_fraction(self):
        data = build_dataset("uniform", 10, seed=1)
        with pytest.raises(ValueError):
            UpdateStream(data, insert_fraction=1.5)

    def test_negative_count(self):
        data = build_dataset("uniform", 10, seed=1)
        stream = UpdateStream(data, seed=1)
        with pytest.raises(ValueError):
            list(stream.ops(-1))


class TestRangeQueries:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            RangeQuery(0.5, 0.5)

    def test_span(self):
        assert RangeQuery(0.2, 0.5).span == pytest.approx(0.3)

    def test_true_selectivity(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        assert RangeQuery(0.15, 0.35).true_selectivity(values) == pytest.approx(0.5)

    def test_true_selectivity_empty_data(self):
        assert RangeQuery(0.0, 1.0).true_selectivity(np.array([])) == 0.0

    def test_random_workload_shape(self):
        workload = RangeQueryWorkload.random((0.0, 1.0), 20, span_fraction=0.1, seed=1)
        assert len(workload) == 20
        for query in workload:
            assert query.span == pytest.approx(0.1)
            assert 0.0 <= query.low and query.high <= 1.0 + 1e-12

    def test_random_workload_seeded(self):
        a = RangeQueryWorkload.random((0.0, 1.0), 5, seed=3)
        b = RangeQueryWorkload.random((0.0, 1.0), 5, seed=3)
        assert [q.low for q in a] == [q.low for q in b]

    def test_random_workload_validation(self):
        with pytest.raises(ValueError):
            RangeQueryWorkload.random((0.0, 1.0), 0)
        with pytest.raises(ValueError):
            RangeQueryWorkload.random((0.0, 1.0), 5, span_fraction=0.0)
