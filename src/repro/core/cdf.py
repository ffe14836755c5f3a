"""Cumulative distribution functions as first-class objects.

Everything the paper does — computing, sampling, inverting, and mixing
global CDFs — needs one well-behaved representation.  :class:`PiecewiseCDF`
holds a monotone function defined by breakpoints, either right-continuous
step (exact empirical CDFs) or piecewise-linear (interpolated estimates),
and supports vectorised evaluation, exact inversion (the inversion method's
workhorse), and mixture combination (how probe replies are assembled into a
global estimate).
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = ["PiecewiseCDF", "empirical_cdf"]

Kind = Literal["linear", "step"]


class PiecewiseCDF:
    """A monotone CDF defined by breakpoints ``(xs, fs)``.

    ``F(x) = 0`` for ``x < xs[0]`` and ``F(x) = fs[-1]`` for ``x >= xs[-1]``;
    between breakpoints the function is a right-continuous step
    (``kind="step"``) or linear (``kind="linear"``).

    Invariants enforced at construction: ``xs`` strictly increasing,
    ``fs`` non-decreasing, ``0 <= fs <= 1``.
    """

    def __init__(self, xs: Sequence[float], fs: Sequence[float], kind: Kind = "linear") -> None:
        xs_arr = np.asarray(xs, dtype=float)
        fs_arr = np.asarray(fs, dtype=float)
        if xs_arr.ndim != 1 or fs_arr.ndim != 1 or xs_arr.size != fs_arr.size:
            raise ValueError("xs and fs must be 1-D arrays of equal length")
        if xs_arr.size < 1:
            raise ValueError("a CDF needs at least one breakpoint")
        if xs_arr.size > 1:
            if (xs_arr[1:] <= xs_arr[:-1]).any():
                raise ValueError("breakpoints must be strictly increasing")
            # Tolerate float round-off from weighted mixtures, reject real bugs.
            if (fs_arr[1:] - fs_arr[:-1] < -1e-9).any():
                raise ValueError("CDF values must be non-decreasing")
        fs_arr = np.maximum.accumulate(np.clip(fs_arr, 0.0, 1.0))
        if kind not in ("linear", "step"):
            raise ValueError(f"kind must be 'linear' or 'step', got {kind!r}")
        self.xs = xs_arr
        self.fs = fs_arr
        self.kind: Kind = kind

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(cls, values: Sequence[float], presorted: bool = False) -> "PiecewiseCDF":
        """Exact empirical (step) CDF of a sample.

        ``presorted=True`` skips the sort *and* the second sort hidden in
        ``np.unique`` — callers holding the snapshot plane's already-sorted
        ground truth (``RingNetwork.all_values``) build identical CDFs in
        one linear pass.
        """
        arr = np.asarray(values, dtype=float)
        if not presorted:
            arr = np.sort(arr)
        if arr.size == 0:
            raise ValueError("cannot build an empirical CDF from no samples")
        if presorted:
            keep = np.empty(arr.size, dtype=bool)
            keep[0] = True
            np.not_equal(arr[1:], arr[:-1], out=keep[1:])
            unique = arr[keep]
            starts = np.flatnonzero(keep)
            counts = np.diff(np.append(starts, arr.size))
        else:
            unique, counts = np.unique(arr, return_counts=True)
        fs = np.cumsum(counts) / arr.size
        return cls(unique, fs, kind="step")

    @classmethod
    def mixture(
        cls,
        xs: NDArray[np.float64],
        fs: NDArray[np.float64],
        bounds: NDArray[np.int64],
        weights: Sequence[float],
        kind: Kind = "linear",
    ) -> "PiecewiseCDF":
        """Weighted mixture ``F = Σ w_i F_i`` of piecewise CDFs given as runs.

        Component ``i`` is the ``kind`` CDF with breakpoints
        ``xs[bounds[i]:bounds[i + 1]]`` and values ``fs[...]`` (strictly
        increasing breakpoints, values valid for a :class:`PiecewiseCDF`).
        This is how a global estimate is assembled from per-peer local CDFs:
        breakpoints are merged, and each component adds ``w_i F_i`` at every
        merged breakpoint, component after component.  Off its support a
        component adds ``0`` on the left and ``w_i F_i(∞)`` on the right, so
        only the breakpoints inside its support are evaluated.
        """
        if bounds.size < 2:
            raise ValueError("mixture needs at least one component")
        weight_arr = np.asarray(weights, dtype=float)
        if weight_arr.size != bounds.size - 1:
            raise ValueError("one weight per component required")
        if np.any(weight_arr < 0):
            raise ValueError("mixture weights must be non-negative")
        total = weight_arr.sum()
        if total <= 0:
            raise ValueError("mixture weights must not all be zero")
        weight_arr = weight_arr / total
        grid = np.unique(xs)
        values = np.zeros_like(grid)
        for start, stop, w in zip(bounds[:-1].tolist(), bounds[1:].tolist(), weight_arr):
            if w <= 0:
                continue
            cx, cf = xs[start:stop], fs[start:stop]
            lo, hi = np.searchsorted(grid, (cx[0], cx[-1])).tolist()
            if kind == "step":
                inner = cf[np.searchsorted(cx, grid[lo:hi], side="right") - 1]
            else:
                inner = np.interp(grid[lo:hi], cx, cf)
            values[lo:hi] += w * inner
            values[hi:] += w * cf[-1]
        return cls(grid, values, kind=kind)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, x: NDArray[np.float64] | float) -> NDArray[np.float64]:
        """Evaluate ``F`` at ``x`` (vectorised)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "step":
            idx = np.searchsorted(self.xs, x_arr, side="right")
            padded = np.concatenate(([0.0], self.fs))
            out = padded[idx]
        else:
            out = np.interp(x_arr, self.xs, self.fs, left=0.0, right=float(self.fs[-1]))
        return out if np.ndim(x) else float(out[0])

    def inverse(self, u: NDArray[np.float64] | float) -> NDArray[np.float64]:
        """Generalised inverse ``F⁻¹(u) = min{x : F(x) >= u}`` (vectorised).

        This is the inversion-method primitive: feeding it uniforms yields
        variates distributed according to this CDF.  ``u`` outside
        ``[0, fs[-1]]`` clamps to the support edges.
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        u_clip = np.clip(u_arr, 0.0, float(self.fs[-1]))
        idx = np.searchsorted(self.fs, u_clip, side="left")
        idx = np.minimum(idx, self.fs.size - 1)
        if self.kind == "step":
            out = self.xs[idx]
        else:
            # Interpolate within the segment ending at idx, unless u hits a
            # breakpoint value exactly (then the leftmost preimage is taken).
            out = self.xs[idx].astype(float).copy()
            interior = (idx > 0) & (self.fs[idx] > u_clip)
            if np.any(interior):
                i = idx[interior]
                f_lo, f_hi = self.fs[i - 1], self.fs[i]
                x_lo, x_hi = self.xs[i - 1], self.xs[i]
                frac = (u_clip[interior] - f_lo) / (f_hi - f_lo)
                out[interior] = x_lo + frac * (x_hi - x_lo)
        return out if np.ndim(u) else float(out[0])

    def sample(self, n: int, rng: np.random.Generator) -> NDArray[np.float64]:
        """Draw ``n`` variates by the inversion method."""
        if n < 0:
            raise ValueError(f"sample size must be >= 0, got {n}")
        return np.asarray(self.inverse(rng.uniform(0.0, 1.0, size=n)), dtype=float)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_mass(self) -> float:
        """``F`` at the right end (1.0 for a proper CDF)."""
        return float(self.fs[-1])

    def density_on_grid(self, grid: NDArray[np.float64]) -> NDArray[np.float64]:
        """Finite-difference density on an evaluation grid.

        Returns one value per grid *cell* (length ``len(grid) - 1``):
        ``(F(g[i+1]) - F(g[i])) / (g[i+1] - g[i])``.
        """
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-D with at least 2 points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        values = self(grid)
        return np.diff(values) / np.diff(grid)

    def mass_between(self, low: float, high: float) -> float:
        """Probability mass of ``[low, high)`` — the selectivity primitive."""
        if not low <= high:
            raise ValueError(f"inverted interval [{low}, {high})")
        return float(self(high)) - float(self(low))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiecewiseCDF(kind={self.kind!r}, points={self.xs.size}, "
            f"support=({self.xs[0]:.4g}, {self.xs[-1]:.4g}))"
        )


def empirical_cdf(values: Sequence[float], presorted: bool = False) -> PiecewiseCDF:
    """Convenience alias for :meth:`PiecewiseCDF.from_samples`."""
    return PiecewiseCDF.from_samples(values, presorted=presorted)
