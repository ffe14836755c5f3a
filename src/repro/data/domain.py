"""Scalar data domains.

A :class:`Domain` is the closed value interval the network's
order-preserving hash covers.  Error metrics, density grids, and range
queries all need consistent domain handling, so it lives in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Domain", "UNIT_DOMAIN"]


@dataclass(frozen=True)
class Domain:
    """A closed scalar interval ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"empty domain [{self.low}, {self.high}]")

    @property
    def width(self) -> float:
        """Length of the interval."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Membership test (closed on both ends)."""
        return self.low <= value <= self.high

    def normalize(self, values: np.ndarray | float) -> np.ndarray | float:
        """Map domain values to ``[0, 1]``."""
        return (np.asarray(values, dtype=float) - self.low) / self.width

    def denormalize(self, units: np.ndarray | float) -> np.ndarray | float:
        """Map ``[0, 1]`` coordinates back to domain values."""
        return self.low + np.asarray(units, dtype=float) * self.width

    def grid(self, points: int) -> np.ndarray:
        """Evenly spaced evaluation grid including both endpoints."""
        if points < 2:
            raise ValueError(f"grid needs at least 2 points, got {points}")
        return np.linspace(self.low, self.high, points)

    def as_tuple(self) -> tuple[float, float]:
        """Plain-tuple view, for interoperating with the network layer."""
        return (self.low, self.high)


UNIT_DOMAIN = Domain(0.0, 1.0)
"""The default domain used throughout the experiments."""
