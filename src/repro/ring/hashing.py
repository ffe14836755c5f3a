"""Placement functions: how peers and data land on the ring.

Under consistent (uniform) hashing, the classic DHT placement, keys are
scattered uniformly, so every peer holds an unbiased random sample of the
global data and density estimation is trivial.  The paper targets
**order-preserving placement** instead: the data value maps monotonically
onto ring position, so range queries are local but each peer's data
reflects only its own slice of the domain.  Estimating the *global*
distribution then genuinely requires the paper's machinery.

The mapping is deterministic and a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ring.identifier import IdentifierSpace

__all__ = ["OrderPreservingHash"]


@dataclass(frozen=True)
class OrderPreservingHash:
    """Monotone mapping of a scalar data domain onto the ring.

    Values in ``[low, high)`` map linearly onto ``[0, 2**m)``.  Monotonicity
    is the property everything downstream relies on: the ring order of data
    equals the value order, so cumulative counts around the ring *are* the
    global CDF.

    Values outside the domain are clamped; the domain should be chosen wide
    enough that clamping is a non-event (the workload builders do this).
    """

    space: IdentifierSpace
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"empty domain [{self.low}, {self.high})")

    def __call__(self, value: float) -> int:
        u = (value - self.low) / (self.high - self.low)
        u = min(max(u, 0.0), 1.0)
        ident = int(u * self.space.size)
        return min(ident, self.space.size - 1)

    def map_values(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` over an array of domain values.

        Produces exactly the identifiers the scalar path yields (same IEEE
        double intermediate, same truncation, same top-of-ring clamp), as a
        ``uint64`` array — the bulk-load and batched-probe paths depend on
        that equivalence for byte-identical placement.
        """
        arr = np.asarray(values, dtype=float)
        u = np.clip((arr - self.low) / (self.high - self.low), 0.0, 1.0)
        size = float(self.space.size)  # 2**m is exactly representable
        scaled = u * size
        keys = np.empty(arr.shape, dtype=np.uint64)
        # u == 1.0 scales to exactly 2**m, which a float->uint64 cast cannot
        # represent for m == 64; clamp those entries to the top identifier
        # exactly as the scalar path's min(ident, size - 1) does.
        over = scaled >= size
        keys[~over] = scaled[~over].astype(np.uint64)
        keys[over] = np.uint64(self.space.size - 1)
        return keys

    def to_value(self, ident: int) -> float:
        """Inverse map: ring position back to a domain value.

        Exact inversion is impossible (the map is many-to-one on fine
        scales); this returns the left edge of the identifier's value bucket,
        which is what the estimators need to convert probe positions into
        domain coordinates.
        """
        self.space.validate(ident)
        u = ident / self.space.size
        return self.low + u * (self.high - self.low)
