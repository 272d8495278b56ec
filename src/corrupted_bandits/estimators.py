"""Robust mean estimators: Huber M-estimator, its streaming variant, and baselines.

The Huber estimate of location is the root of ``sum(psi(x_i - theta)) = 0``
where ``psi`` clips residuals at ``+/-beta``.  The root is found by monotone
bisection (the influence sum is nonincreasing in ``theta``) accelerated with
Newton steps, on a sorted copy of the data so each evaluation costs
``O(log n)``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .envs import check_positive

__all__ = [
    "influence",
    "influence_derivative",
    "huber_estimate",
    "catoni_estimate",
    "median_of_means",
    "mad_scale",
    "floor_pow2",
    "SequentialHuber",
    "HuberSolverError",
]

# Gaussian consistency factor for the median absolute deviation.
MAD_CONSISTENCY = 1.4826

# Default root tolerance: |sum psi| <= ROOT_TOL_SCALE * n * max(beta, 1).
ROOT_TOL_SCALE = 1e-9
MAX_SOLVER_ITER = 200


class HuberSolverError(RuntimeError):
    """Root finder failed to reach tolerance; indicates a solver bug."""


def influence(x, beta: float):
    """Clipping influence function: identity on [-beta, beta], saturated outside.

    Odd, bounded by ``beta`` in absolute value, continuous at the clip points.
    Accepts scalars or arrays.
    """
    check_positive(beta, "beta")
    if isinstance(x, np.ndarray):
        return np.clip(x, -beta, beta)
    return min(max(x, -beta), beta)


def influence_derivative(x, beta: float):
    """Derivative of :func:`influence`: indicator of the unclipped region.

    Uses the closed-interval convention: equals 1 at ``|x| == beta``.
    """
    check_positive(beta, "beta")
    if isinstance(x, np.ndarray):
        return (np.abs(x) <= beta).astype(float)
    return 1.0 if abs(x) <= beta else 0.0


def default_root_tol(n: int, beta: float) -> float:
    return ROOT_TOL_SCALE * n * max(beta, 1.0)


def _influence_sum_sorted(xs: np.ndarray, prefix: np.ndarray, beta: float, theta: float):
    """Influence sum and unclipped count at ``theta`` for sorted data.

    ``prefix`` is the cumulative sum of ``xs`` with a leading zero.  The sum is
    evaluated in O(log n) via binary search for the unclipped window
    ``[theta - beta, theta + beta]``; both endpoints are inside the window
    (closed-interval convention).
    """
    i = xs.searchsorted(theta - beta, "left").item()
    j = xs.searchsorted(theta + beta, "right").item()
    return _window_sum(prefix, xs.size, beta, theta, i, j), j - i


def _window_sum(prefix: np.ndarray, n: int, beta: float, theta: float, i: int, j: int) -> float:
    """Influence sum at ``theta`` given its unclipped window ``xs[i:j]``."""
    inner = (prefix.item(j) - prefix.item(i)) - (j - i) * theta
    return inner + beta * ((n - j) - i)


def _huber_root_sorted(
    xs: np.ndarray,
    prefix: np.ndarray,
    beta: float,
    tol: float,
    guess: float | None = None,
) -> float:
    """Root of the influence equation on pre-sorted data with prefix sums."""
    n = xs.size
    sample_lo = lo = xs.item(0)
    sample_hi = hi = xs.item(n - 1)
    if lo == hi:
        return lo

    # Optional warm start: tighten the bracket around a previous root.
    if guess is not None and lo < guess < hi:
        width = max((hi - lo) * 1e-3, beta * 1e-3, 1e-12)
        for _ in range(40):
            a = max(lo, guess - width)
            b = min(hi, guess + width)
            ia, ib = xs.searchsorted((a - beta, b - beta), "left").tolist()
            ja, jb = xs.searchsorted((a + beta, b + beta), "right").tolist()
            ga = _window_sum(prefix, n, beta, a, ia, ja)
            gb = _window_sum(prefix, n, beta, b, ib, jb)
            if ga >= 0.0 >= gb:
                lo, hi = a, b
                break
            width *= 8.0
            if a == lo and b == hi:
                break

    theta = 0.5 * (lo + hi)
    for _ in range(MAX_SOLVER_ITER):
        g, m = _influence_sum_sorted(xs, prefix, beta, theta)
        if abs(g) <= tol:
            # Newton polish: on the piecewise-linear influence sum this lands
            # on the exact root whenever no clip boundary is crossed, so a
            # generous tolerance never degrades the returned value.
            for _ in range(4):
                if m <= 0 or g == 0.0:
                    break
                cand = min(max(theta + g / m, sample_lo), sample_hi)
                g2, m2 = _influence_sum_sorted(xs, prefix, beta, cand)
                if abs(g2) < abs(g):
                    theta, g, m = cand, g2, m2
                else:
                    break
            return theta
        if g > 0.0:
            lo = theta
        else:
            hi = theta
        # Newton step on the piecewise-linear influence sum, kept inside the
        # bracket; fall back to the midpoint otherwise.
        newton = theta + g / m if m > 0 else None
        if newton is not None and lo < newton < hi:
            theta = newton
        else:
            theta = 0.5 * (lo + hi)
    raise HuberSolverError(
        f"influence-sum root not located to tolerance {tol:g} "
        f"within {MAX_SOLVER_ITER} iterations"
    )


def huber_estimate(samples: Sequence[float] | np.ndarray, beta: float) -> float:
    """Huber estimate of location with clipping threshold ``beta``.

    Parameters
    ----------
    samples : array-like, nonempty
        Observations.
    beta : float > 0
        Clipping threshold.  Large ``beta`` recovers the empirical mean,
        small ``beta`` approaches the empirical median.

    Returns
    -------
    float
        ``theta`` with ``|sum(psi(x_i - theta))| <= 1e-9 * n * max(beta, 1)``,
        guaranteed to lie in ``[min(samples), max(samples)]``.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    check_positive(beta, "beta")
    xs = np.sort(x)
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    return _huber_root_sorted(xs, prefix, beta, default_root_tol(x.size, beta))


def catoni_estimate(
    samples: Sequence[float] | np.ndarray,
    sigma: float,
    scale: float = 1.0,
) -> float:
    """Huber estimate tuned for heavy tails: ``beta = scale * sigma * sqrt(n)``.

    The growing threshold tracks the empirical mean ever more closely as the
    sample grows, which is efficient for uncorrupted heavy-tailed data but
    fragile under corruption.
    """
    x = np.asarray(samples, dtype=float)
    beta = check_positive(scale, "scale") * check_positive(sigma, "sigma") * math.sqrt(x.size)
    return huber_estimate(x, beta)


def median_of_means(samples: Sequence[float] | np.ndarray, blocks: int) -> float:
    """Median of block means over contiguous blocks of near-equal size.

    The remainder is distributed one extra sample per block from the front.
    The median of an even number of block means is the midpoint of the two
    central values.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    if not 1 <= blocks <= x.size:
        raise ValueError("blocks must be in [1, len(samples)]")
    base, rem = divmod(x.size, blocks)
    sizes = np.full(blocks, base)
    sizes[:rem] += 1
    bounds = np.zeros(blocks + 1, dtype=sizes.dtype)
    sizes.cumsum(out=bounds[1:])
    prefix = np.zeros(x.size + 1)
    x.cumsum(out=prefix[1:])
    ends = prefix[bounds]
    means = (ends[1:] - ends[:-1]) / sizes
    means.sort()
    if math.isnan(means.item(blocks - 1)):
        # the sort puts nan last; np.median returns nan as well
        return math.nan
    half = blocks // 2
    if blocks % 2:
        return means.item(half)
    return (means.item(half - 1) + means.item(half)) / 2.0


def mad_scale(samples: Sequence[float] | np.ndarray) -> float:
    """Median absolute deviation scaled to be consistent for a Gaussian sigma."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    med = np.median(x)
    return MAD_CONSISTENCY * float(np.median(np.abs(x - med)))


def _doubled(buf: np.ndarray, used: int) -> np.ndarray:
    """A buffer of twice the capacity of ``buf`` holding its first ``used`` entries."""
    grown = np.empty(buf.size * 2, dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


def floor_pow2(t: int) -> int:
    """Largest power of two not exceeding ``t`` (``t >= 1``)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return 1 << (int(t).bit_length() - 1)


class SequentialHuber:
    """Streaming Huber estimate with batch recomputation at powers of two.

    Between recomputations the estimate applies a one-step Newton correction
    around the last anchor ``H``: the correction numerator accumulates
    ``psi(x_i - H)`` for samples after the anchor step (the influence sum of
    the anchor prefix is zero by the definition of ``H``), and the denominator
    accumulates ``psi'(x_i - H)`` over the whole stream.

    The value at count 0 is defined to be 0.  When the correction denominator
    is 0 the anchor itself is returned: an empty linearization window carries
    no local information.  The Newton step can overshoot the samples, so a
    corrected value is clamped into their range ``[lo, hi]`` (nan passes).
    """

    def __init__(self, beta: float, capacity: int = 64):
        self.beta = float(check_positive(beta, "beta"))
        self.count = 0
        self.anchor = 0.0
        self.psi_sum = 0.0
        self.psi_prime_sum = 0.0
        self.lo = math.inf
        self.hi = -math.inf
        self._buf = np.empty(max(capacity, 1), dtype=float)
        # Total samples touched by batch recomputations; bounded by 2n.
        self.solver_samples = 0

    @property
    def buffer(self) -> np.ndarray:
        """Chronological view of the samples seen so far."""
        return self._buf[: self.count]

    def update(self, x: float) -> None:
        if self.count == self._buf.size:
            self._buf = _doubled(self._buf, self.count)
        self._buf[self.count] = x
        self.count += 1
        if x < self.lo:
            self.lo = x
        if x > self.hi:
            self.hi = x
        t = self.count
        if not t & (t - 1):
            buf = self._buf[:t]
            self.anchor = huber_estimate(buf, self.beta)
            self.solver_samples += t
            self.psi_sum = 0.0
            self.psi_prime_sum = float(
                np.count_nonzero(np.abs(buf - self.anchor) <= self.beta)
            )
        else:
            r = x - self.anchor
            self.psi_sum += min(max(r, -self.beta), self.beta)
            if abs(r) <= self.beta:
                self.psi_prime_sum += 1.0

    @property
    def value(self) -> float:
        n = self.count
        if n == 0:
            return 0.0
        if not n & (n - 1) or self.psi_prime_sum == 0.0:
            return self.anchor
        v = self.anchor + self.psi_sum / self.psi_prime_sum
        if v < self.lo:
            return self.lo
        elif v > self.hi:
            return self.hi
        return v
