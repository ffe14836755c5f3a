"""The distribution zoo: synthetic data generators with analytic truth.

"Distribution-free" is the paper's headline property, so the evaluation
needs data whose true CDF/PDF is known exactly and whose shapes span the
regimes that break distribution-bound methods: uniform, light-tailed
unimodal, heavy-tailed (Zipf-like), multimodal mixtures, and exponential
decay.  Every distribution here is truncated to a bounded :class:`Domain`
(the ring's order-preserving hash needs finite bounds) with its CDF
renormalised accordingly, so measured estimation errors are exact.

All sampling takes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.domain import UNIT_DOMAIN, Domain

__all__ = [
    "DiscreteZipf",
    "Distribution",
    "UniformDistribution",
    "TruncatedNormal",
    "TruncatedExponential",
    "BoundedPareto",
    "MixtureDistribution",
    "bimodal_mixture",
    "make_distribution",
    "DISTRIBUTION_NAMES",
]

_erf = np.frompyfunc(math.erf, 1, 1)


def _phi(z: np.ndarray | float) -> np.ndarray:
    """Standard normal CDF, vectorised without a scipy dependency."""
    z = np.asarray(z, dtype=float)
    # frompyfunc yields an object array (or scalar for 0-d input); coerce.
    return 0.5 * (1.0 + np.asarray(_erf(z / math.sqrt(2.0)), dtype=float))


class Distribution(ABC):
    """A scalar distribution over a bounded domain with analytic truth."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short label used in experiment tables."""

    @property
    @abstractmethod
    def domain(self) -> Domain:
        """Support of the (truncated) distribution."""

    @abstractmethod
    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        """True CDF, 0 at ``domain.low`` and 1 at ``domain.high``."""

    @abstractmethod
    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        """True density (0 outside the domain)."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` iid values."""

    def _rejection_sample(
        self,
        n: int,
        rng: np.random.Generator,
        draw,
        max_rounds: int = 1000,
    ) -> np.ndarray:
        """Sample by drawing from an untruncated base and keeping in-domain.

        ``draw(k, rng)`` produces ``k`` base draws.  Raises if acceptance is
        pathologically low, which indicates a misconfigured truncation.
        """
        if n <= 0:
            return np.empty(0, dtype=float)
        low = self.domain.low
        high = self.domain.high
        if n == 1:
            # Update streams sample one value at a time, so this path runs
            # hundreds of thousands of times per experiment.  Draw the same
            # 16-wide batch the general path would (the consumed RNG stream
            # is unchanged), then scan it as Python floats: the first
            # in-domain value is exactly ``kept[0]`` below, without the
            # four small-array kernel launches of the mask-and-select.
            for _ in range(max_rounds):
                for value in draw(16, rng).tolist():
                    if low <= value <= high:
                        return np.array([value], dtype=float)
            raise RuntimeError(
                f"{self.name}: rejection sampling accepted too few draws; "
                "truncation bounds capture almost no probability mass"
            )
        # First round inline: for small n (estimation streams sample one
        # value at a time) the first batch nearly always suffices, and the
        # output buffer plus copy loop can be skipped entirely.  Draw sizes
        # and order are identical to the general loop, so the consumed RNG
        # stream — and therefore every downstream draw — is unchanged.
        batch = draw(max(n * 2, 16), rng)
        kept = batch[(batch >= low) & (batch <= high)]
        if kept.size >= n:
            return kept if kept.size == n else kept[:n]
        out = np.empty(n, dtype=float)
        out[: kept.size] = kept
        filled = kept.size
        for _ in range(max_rounds - 1):
            if filled >= n:
                break
            needed = n - filled
            batch = draw(max(needed * 2, 16), rng)
            kept = batch[(batch >= low) & (batch <= high)]
            take = min(kept.size, needed)
            out[filled : filled + take] = kept[:take]
            filled += take
        if filled < n:
            raise RuntimeError(
                f"{self.name}: rejection sampling accepted too few draws; "
                "truncation bounds capture almost no probability mass"
            )
        return out


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Uniform over the domain — the no-skew control case."""

    _domain: Domain = UNIT_DOMAIN

    @property
    def name(self) -> str:
        return "uniform"

    @property
    def domain(self) -> Domain:
        return self._domain

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        u = self._domain.normalize(np.asarray(x, dtype=float))
        return np.clip(u, 0.0, 1.0)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (x >= self._domain.low) & (x <= self._domain.high)
        return np.where(inside, 1.0 / self._domain.width, 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self._domain.low, self._domain.high, size=n)


@dataclass(frozen=True)
class TruncatedNormal(Distribution):
    """Normal(mean, std) truncated and renormalised to the domain."""

    mean: float = 0.5
    std: float = 0.15
    _domain: Domain = UNIT_DOMAIN

    def __post_init__(self) -> None:
        if self.std <= 0:
            raise ValueError(f"std must be positive, got {self.std}")

    @property
    def name(self) -> str:
        return "normal"

    @property
    def domain(self) -> Domain:
        return self._domain

    def _mass(self) -> float:
        lo = float(_phi((self._domain.low - self.mean) / self.std))
        hi = float(_phi((self._domain.high - self.mean) / self.std))
        return hi - lo

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=float), self._domain.low, self._domain.high)
        lo = float(_phi((self._domain.low - self.mean) / self.std))
        raw = _phi((x - self.mean) / self.std) - lo
        return np.clip(raw / self._mass(), 0.0, 1.0)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.std
        raw = np.exp(-0.5 * z * z) / (self.std * math.sqrt(2 * math.pi))
        inside = (x >= self._domain.low) & (x <= self._domain.high)
        return np.where(inside, raw / self._mass(), 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._rejection_sample(
            n, rng, lambda k, g: g.normal(self.mean, self.std, size=k)
        )


@dataclass(frozen=True)
class TruncatedExponential(Distribution):
    """Exponential decay from the domain's left edge, truncated at the right.

    ``rate`` is in units of 1/domain-width, so ``rate=5`` concentrates about
    99 % of the mass in the left two thirds of the domain.
    """

    rate: float = 5.0
    _domain: Domain = UNIT_DOMAIN

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def name(self) -> str:
        return "exponential"

    @property
    def domain(self) -> Domain:
        return self._domain

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        u = np.clip(self._domain.normalize(np.asarray(x, dtype=float)), 0.0, 1.0)
        mass = 1.0 - math.exp(-self.rate)
        return (1.0 - np.exp(-self.rate * u)) / mass

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = self._domain.normalize(x)
        mass = 1.0 - math.exp(-self.rate)
        raw = self.rate * np.exp(-self.rate * np.clip(u, 0.0, 1.0)) / mass
        inside = (x >= self._domain.low) & (x <= self._domain.high)
        return np.where(inside, raw / self._domain.width, 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Exact inverse-CDF sampling of the truncated exponential.
        u = rng.uniform(0.0, 1.0, size=n)
        mass = 1.0 - math.exp(-self.rate)
        unit = -np.log(1.0 - u * mass) / self.rate
        return np.asarray(self._domain.denormalize(unit), dtype=float)


@dataclass(frozen=True)
class BoundedPareto(Distribution):
    """Bounded Pareto — the continuous stand-in for Zipf-skewed data.

    Density ``∝ x^(-alpha-1)`` on ``[low, high]`` with ``low > 0``.  Larger
    ``alpha`` means heavier concentration near the low end; ``alpha → 0``
    approaches log-uniform.  Experiments use it as the "zipf" workload and
    sweep ``alpha`` as the skew parameter.
    """

    alpha: float = 1.0
    _domain: Domain = field(default_factory=lambda: Domain(0.01, 1.0))

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self._domain.low <= 0:
            raise ValueError("BoundedPareto requires a strictly positive lower bound")

    @property
    def name(self) -> str:
        return "zipf"

    @property
    def domain(self) -> Domain:
        return self._domain

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=float), self._domain.low, self._domain.high)
        l, h, a = self._domain.low, self._domain.high, self.alpha
        return (1.0 - (l / x) ** a) / (1.0 - (l / h) ** a)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        l, h, a = self._domain.low, self._domain.high, self.alpha
        norm = a * l**a / (1.0 - (l / h) ** a)
        inside = (x >= l) & (x <= h)
        safe = np.where(inside, x, l)
        return np.where(inside, norm * safe ** (-a - 1.0), 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Exact inversion of the bounded-Pareto CDF.
        u = rng.uniform(0.0, 1.0, size=n)
        l, h, a = self._domain.low, self._domain.high, self.alpha
        return l / (1.0 - u * (1.0 - (l / h) ** a)) ** (1.0 / a)


@dataclass(frozen=True)
class MixtureDistribution(Distribution):
    """Finite mixture of component distributions over a common domain."""

    components: tuple[Distribution, ...]
    weights: tuple[float, ...]
    label: str = "mixture"

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must be non-empty and equal length")
        if any(w <= 0 for w in self.weights):
            raise ValueError("mixture weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {sum(self.weights)}")
        first = self.components[0].domain
        for comp in self.components[1:]:
            if comp.domain != first:
                raise ValueError("all mixture components must share one domain")

    @property
    def name(self) -> str:
        return self.label

    @property
    def domain(self) -> Domain:
        return self.components[0].domain

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        return sum(
            w * comp.cdf(x) for comp, w in zip(self.components, self.weights)
        )

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        return sum(
            w * comp.pdf(x) for comp, w in zip(self.components, self.weights)
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        choices = rng.choice(len(self.components), size=n, p=list(self.weights))
        out = np.empty(n, dtype=float)
        for index, comp in enumerate(self.components):
            mask = choices == index
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(count, rng)
        return out


def bimodal_mixture(
    domain: Domain = UNIT_DOMAIN,
    centers: Sequence[float] = (0.25, 0.75),
    stds: Sequence[float] = (0.06, 0.1),
    weights: Sequence[float] = (0.6, 0.4),
) -> MixtureDistribution:
    """The canonical multimodal workload: two well-separated Gaussian bumps."""
    components = tuple(
        TruncatedNormal(mean=c, std=s, _domain=domain) for c, s in zip(centers, stds)
    )
    return MixtureDistribution(components, tuple(weights), label="mixture")


@dataclass(frozen=True)
class DiscreteZipf(Distribution):
    """Discrete Zipf over ``k`` atoms spread across the domain.

    Mass on the ``r``-th atom is proportional to ``r^(-theta)``; atom
    locations are evenly spaced.  Unlike the continuous zoo members, this
    distribution's CDF is a *step function* — the stress case for the CDF
    machinery (atoms concentrate entire jumps on single peers) and the
    classic model for categorical popularity data (word frequencies,
    object accesses).
    """

    k: int = 100
    theta: float = 1.0
    _domain: Domain = UNIT_DOMAIN

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"need at least one atom, got {self.k}")
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")

    @property
    def name(self) -> str:
        return "zipf-discrete"

    @property
    def domain(self) -> Domain:
        return self._domain

    def atoms(self) -> np.ndarray:
        """The ``k`` atom locations (even grid, domain edges excluded)."""
        return np.asarray(
            self._domain.denormalize((np.arange(self.k) + 0.5) / self.k), dtype=float
        )

    def masses(self) -> np.ndarray:
        """Normalised Zipf masses, heaviest first atom."""
        ranks = np.arange(1, self.k + 1, dtype=float)
        raw = ranks ** (-self.theta)
        return raw / raw.sum()

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        atoms = self.atoms()
        cumulative = np.concatenate(([0.0], np.cumsum(self.masses())))
        idx = np.searchsorted(atoms, np.atleast_1d(x_arr), side="right")
        out = cumulative[idx]
        return out if x_arr.ndim else float(out[0])

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        """Density does not exist for atoms; report mass at exact atom
        locations and 0 elsewhere (adequate for plotting/tests)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        atoms = self.atoms()
        masses = self.masses()
        out = np.zeros_like(x_arr)
        for index, atom in enumerate(atoms):
            out[np.isclose(x_arr, atom)] = masses[index]
        return out if np.ndim(x) else float(out[0])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        choices = rng.choice(self.k, size=n, p=self.masses())
        return self.atoms()[choices]


DISTRIBUTION_NAMES = ("uniform", "normal", "zipf", "mixture", "exponential")
"""Names accepted by :func:`make_distribution`, in canonical table order.
``zipf-discrete`` is additionally available as an atom-heavy stress
workload but is excluded from the default experiment sweeps."""


def make_distribution(name: str, **params) -> Distribution:
    """Factory for the standard experiment workloads.

    Accepted names: ``uniform``, ``normal``, ``zipf``, ``mixture``,
    ``exponential``, and the extra stress workload ``zipf-discrete``.
    Keyword parameters override each distribution's defaults (e.g.
    ``make_distribution("zipf", alpha=1.5)``).
    """
    builders = {
        "uniform": UniformDistribution,
        "normal": TruncatedNormal,
        "zipf": BoundedPareto,
        "mixture": bimodal_mixture,
        "exponential": TruncatedExponential,
        "zipf-discrete": DiscreteZipf,
    }
    if name not in builders:
        known = tuple(builders)
        raise ValueError(f"unknown distribution {name!r}; choose from {known}")
    return builders[name](**params)
