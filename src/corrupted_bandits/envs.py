"""Corrupted bandit environments: distribution families, mixture arms, presets.

An arm draws from its inlier law with probability ``1 - eps`` and from an
arbitrary outlier law with probability ``eps``.  Inliers must have finite
variance; outliers are unrestricted and no moment of an outlier law is ever
queried.

Sampling consumes a caller-owned ``numpy.random.Generator`` in a fixed order
(corruption coin first, then the selected law), so identical generators yield
bit-identical reward streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Bernoulli",
    "Gaussian",
    "StudentT",
    "Pareto",
    "Weibull",
    "Dirac",
    "CorruptedArm",
    "BanditEnv",
    "make_env",
    "PRESETS",
    "check_eps",
    "check_positive",
]


def check_eps(eps: float, name: str = "eps") -> None:
    """Reject a corruption rate outside ``[0, 0.5)``."""
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"{name} must lie in [0, 0.5)")


def check_positive(value: float, name: str, nonnegative: bool = False) -> float:
    """``value`` if it is finite and > 0 (>= 0 with ``nonnegative``); nan and inf fail both."""
    kind = "nonnegative" if nonnegative else "positive"
    if not (math.isfinite(value) and (value >= 0.0 if nonnegative else value > 0.0)):
        raise ValueError(f"{name} must be finite and {kind}")
    return value


@dataclass(frozen=True)
class Bernoulli:
    mean_: float

    def __post_init__(self):
        if not 0.0 <= self.mean_ <= 1.0:
            raise ValueError("Bernoulli mean must lie in [0, 1]")

    def mean(self) -> float:
        return self.mean_

    def variance(self) -> float:
        return self.mean_ * (1.0 - self.mean_)

    def sample(self, rng: np.random.Generator) -> float:
        return 1.0 if rng.random() < self.mean_ else 0.0

    def interval_prob(self, lo: float, hi: float) -> float:
        prob = 0.0
        if lo <= 0.0 <= hi:
            prob += 1.0 - self.mean_
        if lo <= 1.0 <= hi:
            prob += self.mean_
        return prob


@dataclass(frozen=True)
class Gaussian:
    mu: float
    std: float

    def __post_init__(self):
        check_positive(self.std, "std")

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.std * self.std

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.normal(self.mu, self.std))

    def interval_prob(self, lo: float, hi: float) -> float:
        z = math.sqrt(2.0) * self.std
        return 0.5 * (math.erf((hi - self.mu) / z) - math.erf((lo - self.mu) / z))


@dataclass(frozen=True)
class StudentT:
    """Student's t with ``df`` degrees of freedom, shifted by ``loc`` (unit scale)."""

    df: float
    loc: float = 0.0

    def __post_init__(self):
        check_positive(self.df, "df")

    def mean(self) -> float:
        if self.df <= 1:
            raise ValueError("mean undefined for df <= 1")
        return self.loc

    def variance(self) -> float:
        if self.df <= 2:
            raise ValueError("variance undefined for df <= 2")
        return self.df / (self.df - 2.0)

    def sample(self, rng: np.random.Generator) -> float:
        return self.loc + float(rng.standard_t(self.df))

    def interval_prob(self, lo: float, hi: float) -> float:
        from scipy.special import stdtr  # only the exact p mode needs scipy
        return float(stdtr(self.df, hi - self.loc) - stdtr(self.df, lo - self.loc))


@dataclass(frozen=True)
class Pareto:
    """Pareto with survival function ``(scale / x)^shape`` on ``x >= scale``."""

    shape: float
    scale: float

    def __post_init__(self):
        check_positive(self.shape, "shape")
        check_positive(self.scale, "scale")

    def mean(self) -> float:
        if self.shape <= 1:
            raise ValueError("mean undefined for shape <= 1")
        return self.scale * self.shape / (self.shape - 1.0)

    def variance(self) -> float:
        a = self.shape
        if a <= 2:
            raise ValueError("variance undefined for shape <= 2")
        return self.scale**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def sample(self, rng: np.random.Generator) -> float:
        # Inverse CDF on 1 - U in (0, 1] keeps the sample finite.
        return self.scale * (1.0 - rng.random()) ** (-1.0 / self.shape)

    def _cdf(self, x: float) -> float:
        if x <= self.scale:
            return 0.0
        return 1.0 - (self.scale / x) ** self.shape

    def interval_prob(self, lo: float, hi: float) -> float:
        return self._cdf(hi) - self._cdf(lo)


@dataclass(frozen=True)
class Weibull:
    shape: float
    scale: float

    def __post_init__(self):
        check_positive(self.shape, "shape")
        check_positive(self.scale, "scale")

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1 * g1)

    def sample(self, rng: np.random.Generator) -> float:
        return self.scale * float(rng.weibull(self.shape))

    def _cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return 1.0 - math.exp(-((x / self.scale) ** self.shape))

    def interval_prob(self, lo: float, hi: float) -> float:
        return self._cdf(hi) - self._cdf(lo)


@dataclass(frozen=True)
class Dirac:
    point: float

    def mean(self) -> float:
        return self.point

    def variance(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator) -> float:
        return self.point

    def interval_prob(self, lo: float, hi: float) -> float:
        return 1.0 if lo <= self.point <= hi else 0.0


Distribution = Bernoulli | Gaussian | StudentT | Pareto | Weibull | Dirac


@dataclass(frozen=True)
class CorruptedArm:
    """Mixture arm: inlier law with weight ``1 - eps``, outlier law with weight ``eps``."""

    inlier: Distribution
    outlier: Distribution
    eps: float = 0.0

    def __post_init__(self):
        check_eps(self.eps)
        # Inliers need two finite moments; raises if undefined.
        self.inlier.variance()

    def sample(self, rng: np.random.Generator) -> tuple[float, bool]:
        """One reward draw: corruption coin first, then the selected law."""
        corrupted = rng.random() < self.eps
        if corrupted:
            return self.outlier.sample(rng), True
        return self.inlier.sample(rng), False


@dataclass(frozen=True)
class BanditEnv:
    arms: tuple[CorruptedArm, ...]

    def __post_init__(self):
        if len(self.arms) == 0:
            raise ValueError("environment needs at least one arm")

    @property
    def k(self) -> int:
        return len(self.arms)

    @cached_property
    def means(self) -> np.ndarray:
        return np.array([a.inlier.mean() for a in self.arms])

    @cached_property
    def sigmas(self) -> np.ndarray:
        return np.sqrt([a.inlier.variance() for a in self.arms])

    @cached_property
    def gaps(self) -> np.ndarray:
        return self.means.max() - self.means


def _gaussian_outliers() -> tuple[Distribution, ...]:
    return (Gaussian(100.0, 1.0), Gaussian(100.0, 1.0), Gaussian(-1000.0, 1.0))


PRESETS = {
    "bernoulli": (
        (Bernoulli(0.1), Bernoulli(0.97), Bernoulli(0.99)),
        (Bernoulli(0.999), Bernoulli(0.999), Bernoulli(0.001)),
    ),
    "student": (
        (StudentT(3.0, 0.1), StudentT(3.0, 0.95), StudentT(3.0, 1.0)),
        _gaussian_outliers(),
    ),
    "pareto": (
        (Pareto(3.0, 0.1), Pareto(3.0, 0.2), Pareto(2.1, 0.3)),
        _gaussian_outliers(),
    ),
    "weibull": (
        (Weibull(2.0, 0.5), Weibull(2.0, 0.7), Weibull(0.75, 0.8)),
        _gaussian_outliers(),
    ),
}


def make_env(preset: str, eps: float = 0.0) -> BanditEnv:
    """Build a named three-armed environment with corruption rate ``eps``.

    The ``weibull`` preset is conventionally run uncorrupted (``eps = 0``);
    its outlier laws only matter when a positive ``eps`` is requested.
    """
    try:
        inliers, outliers = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    arms = tuple(
        CorruptedArm(inl, out, eps) for inl, out in zip(inliers, outliers)
    )
    return BanditEnv(arms)
