"""Workload builders: datasets, update streams, and range-query sets.

Experiments never hand-roll data; they describe a workload here and get a
seeded, reproducible object back.  The update stream models the *dynamic
data* half of the paper's "dynamic networks" claim (the peer-churn half
lives in :mod:`repro.ring.churn`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal, NamedTuple, Optional

import numpy as np

from repro.data.distributions import Distribution, make_distribution

__all__ = ["Dataset", "build_dataset", "UpdateOp", "UpdateStream", "RangeQuery", "RangeQueryWorkload"]


@dataclass(frozen=True)
class Dataset:
    """A generated dataset together with its generating truth."""

    values: np.ndarray
    distribution: Distribution
    seed: int

    @property
    def size(self) -> int:
        """Number of items."""
        return int(self.values.size)


def build_dataset(
    distribution: Distribution | str,
    n: int,
    seed: int = 0,
    **dist_params,
) -> Dataset:
    """Generate ``n`` iid values from a distribution (by object or name)."""
    if n < 0:
        raise ValueError(f"dataset size must be >= 0, got {n}")
    if isinstance(distribution, str):
        distribution = make_distribution(distribution, **dist_params)
    elif dist_params:
        raise ValueError("dist_params only apply when distribution is given by name")
    rng = np.random.default_rng(seed)
    values = distribution.sample(n, rng)
    return Dataset(values=values, distribution=distribution, seed=seed)


class UpdateOp(NamedTuple):
    """One data update: insert a fresh value or delete an existing one.

    A named tuple rather than a dataclass: streams yield hundreds of
    thousands of these per drift round, and tuple construction skips the
    frozen-dataclass ``__setattr__`` round-trip.
    """

    kind: Literal["insert", "delete"]
    value: float


@dataclass
class UpdateStream:
    """A stream of inserts/deletes that drifts the stored dataset.

    Inserts draw from ``insert_distribution`` (defaults to the dataset's
    own generator — stationary updates; pass a different one to model
    distribution drift).  Deletes remove a uniformly chosen live item.
    """

    dataset: Dataset
    insert_fraction: float = 0.5
    insert_distribution: Optional[Distribution] = None
    seed: int = 0
    _live: list[float] = field(init=False, default_factory=list)
    _rng: np.random.Generator = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if not 0.0 <= self.insert_fraction <= 1.0:
            raise ValueError(f"insert_fraction must be in [0, 1], got {self.insert_fraction}")
        self._live = [float(v) for v in self.dataset.values]
        self._rng = np.random.default_rng(self.seed)
        if self.insert_distribution is None:
            self.insert_distribution = self.dataset.distribution

    def ops(self, count: int) -> Iterator[UpdateOp]:
        """Yield ``count`` update operations, mutating the live set."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        # Hot generator: RNG methods and the live list are hoisted (the
        # list is never rebound, so the local alias stays valid), while
        # ``insert_distribution`` is read per op — callers may swap it
        # between pulls to model drift.
        rng = self._rng
        random = rng.random
        integers = rng.integers
        live = self._live
        insert_fraction = self.insert_fraction
        for _ in range(count):
            if random() < insert_fraction or not live:
                value = float(self.insert_distribution.sample(1, rng)[0])
                live.append(value)
                yield UpdateOp("insert", value)
            else:
                index = int(integers(0, len(live)))
                value = live.pop(index)
                yield UpdateOp("delete", value)


@dataclass(frozen=True)
class RangeQuery:
    """A half-open selectivity query ``[low, high)``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"empty range query [{self.low}, {self.high})")

    @property
    def span(self) -> float:
        """Query width."""
        return self.high - self.low

    def true_selectivity(self, values: np.ndarray) -> float:
        """Fraction of ``values`` falling inside the range."""
        if values.size == 0:
            return 0.0
        inside = np.count_nonzero((values >= self.low) & (values < self.high))
        return inside / values.size


@dataclass(frozen=True)
class RangeQueryWorkload:
    """A reproducible batch of random range queries over a domain."""

    queries: tuple[RangeQuery, ...]

    @classmethod
    def random(
        cls,
        domain: tuple[float, float],
        count: int,
        span_fraction: float = 0.1,
        seed: int = 0,
    ) -> "RangeQueryWorkload":
        """``count`` queries of fixed width ``span_fraction * |domain|``
        with uniformly random left endpoints."""
        if count < 1:
            raise ValueError(f"need at least one query, got {count}")
        if not 0.0 < span_fraction <= 1.0:
            raise ValueError(f"span_fraction must be in (0, 1], got {span_fraction}")
        low, high = domain
        width = (high - low) * span_fraction
        rng = np.random.default_rng(seed)
        starts = rng.uniform(low, high - width, size=count)
        return cls(tuple(RangeQuery(float(s), float(s + width)) for s in starts))

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[RangeQuery]:
        return iter(self.queries)
