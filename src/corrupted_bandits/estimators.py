"""Robust mean estimators, and every per-arm estimator the index policies hold.

The Huber estimate of location is the root of ``sum(psi(x_i - theta)) = 0``
where ``psi`` clips residuals at ``+/-beta``.  The root is found by monotone
bisection (the influence sum is nonincreasing in ``theta``) accelerated with
Newton steps, on a sorted copy of the data with its prefix sums: each
evaluation finds its unclipped window by bisection on memoryviews of the
sorted values, so it costs ``O(log n)``.

The per-arm estimators share one protocol: ``update(x)`` leaves ``count``
and ``value`` current, so a policy reads both without recomputing anything.
The one exception is ``_RewardLog``, whose median-of-means ``value`` depends
on the block count, and so on the step: ``RobustUCBMOM`` refreshes it at each
step's block count before reading it.

- ``_ArmBuffer``: the batch Huber estimate, or the Catoni one with a
  threshold growing like ``sqrt(n)``, re-solved on every update from the
  sorted rewards and their prefix sums;
- :class:`SequentialHuber`: the streaming Huber estimate;
- ``_RunningMean``: the sample mean;
- ``_RewardLog``: running sums of the rewards in arrival order and their
  range, from which :func:`median_of_means` takes each block mean as a
  difference of two sums.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, pairwise
from typing import Sequence

import numpy as np

from .envs import check_positive

__all__ = [
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


def default_root_tol(n: int, beta: float) -> float:
    return ROOT_TOL_SCALE * n * max(beta, 1.0)


def _window(xs, prefix, n: int, beta: float, theta: float) -> tuple[float, int]:
    """Influence sum and unclipped count at ``theta`` for sorted data.

    ``xs`` and ``prefix`` are memoryviews of the sorted values and of their
    cumulative sums with a leading zero; only the first ``n`` values count.
    The unclipped window ``[theta - beta, theta + beta]`` is found by
    bisection, with both endpoints inside it (closed-interval convention).
    """
    i = bisect_left(xs, theta - beta, 0, n)
    j = bisect_right(xs, theta + beta, 0, n)
    inner = (prefix[j] - prefix[i]) - (j - i) * theta
    return inner + beta * ((n - j) - i), j - i


def _huber_root_sorted(xs, prefix, n: int, beta: float, tol: float, guess: float | None = None) -> float:
    """Root of the influence equation on the first ``n`` sorted values (see :func:`_window`)."""
    sample_lo = lo = xs[0]
    sample_hi = hi = xs[n - 1]
    if lo == hi:
        return lo

    # Optional warm start: tighten the bracket around a previous root.
    if guess is not None and lo < guess < hi:
        width = max((hi - lo) * 1e-3, beta * 1e-3, 1e-12)
        for _ in range(40):
            a = max(lo, guess - width)
            b = min(hi, guess + width)
            if _window(xs, prefix, n, beta, a)[0] >= 0.0 >= _window(xs, prefix, n, beta, b)[0]:
                lo, hi = a, b
                break
            width *= 8.0
            if a == lo and b == hi:
                break

    theta = 0.5 * (lo + hi)
    for _ in range(MAX_SOLVER_ITER):
        g, m = _window(xs, prefix, n, beta, theta)
        if abs(g) <= tol:
            # Newton polish: on the piecewise-linear influence sum this lands
            # on the exact root whenever no clip boundary is crossed, so a
            # generous tolerance never degrades the returned value.
            for _ in range(4):
                if m <= 0 or g == 0.0:
                    break
                cand = min(max(theta + g / m, sample_lo), sample_hi)
                g2, m2 = _window(xs, prefix, n, beta, cand)
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
    n = x.size
    prefix = np.zeros(n + 1)
    np.cumsum(xs, out=prefix[1:])
    return _huber_root_sorted(memoryview(xs), memoryview(prefix), n, beta, default_root_tol(n, beta))


def catoni_estimate(samples: Sequence[float] | np.ndarray, sigma: float) -> float:
    """Huber estimate tuned for heavy tails: ``beta = sigma * sqrt(n)``.

    The growing threshold tracks the empirical mean ever more closely as the
    sample grows, which is efficient for uncorrupted heavy-tailed data but
    fragile under corruption.
    """
    x = np.asarray(samples, dtype=float)
    beta = check_positive(sigma, "sigma") * math.sqrt(x.size)
    return huber_estimate(x, beta)


def median_of_means(samples: Sequence[float] | np.ndarray | _RewardLog, blocks: int) -> float:
    """Median of block means over contiguous blocks of near-equal size.

    ``samples`` is a nonempty sequence, or an arm's ``_RewardLog``, which a
    sequence is first made into.  A block mean is the difference of the
    running sums at the block's bounds over its size, so an evaluation costs
    ``O(blocks)``.  The remainder is distributed one extra sample per block
    from the front.  The median of an even number of block means is the
    midpoint of the two central values; it is nan when a block mean is nan.
    It is clamped into the samples' range, which a rounded block mean
    ``sum / size`` can leave.
    """
    log = samples if isinstance(samples, _RewardLog) else _RewardLog(samples)
    n = log.count
    if n == 0:
        raise ValueError("samples must be nonempty")
    if not 1 <= blocks <= n:
        raise ValueError("blocks must be in [1, len(samples)]")
    base, rem = divmod(n, blocks)
    split = rem * (base + 1)
    # The sums at the bounds of the rem blocks of base + 1 samples, then of the others.
    big, small = log.prefix[: split + 1 : base + 1], log.prefix[split::base]
    means = [(b - a) / (base + 1) for a, b in pairwise(big)]
    means += [(b - a) / base for a, b in pairwise(small)]
    if any(map(math.isnan, means)):
        return math.nan
    means.sort()
    half = blocks // 2
    value = means[half] if blocks % 2 else (means[half - 1] + means[half]) / 2.0
    return min(max(value, log.lo), log.hi)


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

    ``update`` leaves ``value`` current: 0 at count 0, the anchor at a power
    of two.  When the correction denominator is 0 it is the anchor itself: an
    empty linearization window carries no local information.  The Newton step
    can overshoot the samples, so a corrected value is clamped into their
    range ``[lo, hi]`` (nan passes).
    """

    def __init__(self, beta: float, capacity: int = 64):
        self.beta = float(check_positive(beta, "beta"))
        self.count = 0
        self.value = 0.0
        self.anchor = 0.0
        self.psi_sum = 0.0
        self.psi_prime_sum = 0.0
        self.lo = math.inf
        self.hi = -math.inf
        self._buf = np.empty(max(capacity, 1), dtype=float)
        # Total samples touched by batch recomputations; bounded by 2n.
        self.solver_samples = 0

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
            with np.errstate(invalid="ignore"):  # an infinite anchor: inf - inf is nan, not counted
                resid = buf - self.anchor
            self.psi_prime_sum = float(np.count_nonzero(np.abs(resid, out=resid) <= self.beta))
            self.value = self.anchor
            return
        r = x - self.anchor
        self.psi_sum += min(max(r, -self.beta), self.beta)
        if abs(r) <= self.beta:
            self.psi_prime_sum += 1.0
        v = self.anchor
        if self.psi_prime_sum != 0.0:
            v += self.psi_sum / self.psi_prime_sum
            if v < self.lo:
                v = self.lo
            elif v > self.hi:
                v = self.hi
        self.value = v


class _ArmBuffer:
    """One arm's batch Huber estimate over its sorted rewards, re-solved on every update.

    The threshold is ``beta``, or ``beta * sqrt(n)`` with ``grow`` (Catoni); each
    root is warm-started at the previous ``value``, which is 0 before any update.
    """

    def __init__(self, beta: float, grow: bool = False):
        self.beta = float(beta)
        self.grow = grow
        self._buffers(np.empty(64, dtype=float), np.zeros(65, dtype=float))
        self.count = 0
        self.value = 0.0

    def _buffers(self, sorted_values: np.ndarray, prefix: np.ndarray) -> None:
        # Each buffer with a memoryview of it, for the bisections and scalar reads.
        self._sorted, self._prefix = sorted_values, prefix
        self._xs, self._ps = memoryview(sorted_values), memoryview(prefix)

    def update(self, x: float) -> None:
        n = self.count
        if n == self._sorted.size:
            self._buffers(_doubled(self._sorted, n), _doubled(self._prefix, n + 1))
        xs = self._xs
        pos = bisect_left(xs, x, 0, n)
        xs[pos + 1 : n + 1] = xs[pos:n]  # memoryview copies are memmoves
        xs[pos] = x
        self.count = n + 1
        # Only the sums from the insert position on change.  np.add.accumulate (np.cumsum's
        # ufunc) adds in order, so seeding it with prefix[pos] gives the full recompute's bits.
        self._ps[pos + 1 : n + 2] = xs[pos : n + 1]
        tail = self._prefix[pos : n + 2]
        np.add.accumulate(tail, out=tail)
        beta = self.beta * math.sqrt(self.count) if self.grow else self.beta
        self.value = self.huber_root(beta, self.value)

    def huber_root(self, beta: float, guess: float) -> float:
        n = self.count
        return _huber_root_sorted(self._xs, self._ps, n, beta, default_root_tol(n, beta), guess)


class _RunningMean:
    """One arm's sample mean, kept as a running total."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.value = 0.0

    def update(self, x: float) -> None:
        self.count += 1
        self.total += x
        self.value = self.total / self.count


class _RewardLog:
    """One arm's rewards as running sums in arrival order, which block means depend on.

    ``prefix[i]`` is the sum of the first ``i`` rewards, added in order as
    ``numpy.cumsum`` adds them; ``lo`` and ``hi`` are the smallest and largest
    reward.  The policy sets ``value`` at ``blocks`` blocks; 0 blocks marks it stale.
    """

    def __init__(self, samples: Sequence[float] | np.ndarray = ()):
        values = np.asarray(samples, dtype=float).ravel().tolist()
        self.prefix = array("d", [0.0])
        self.prefix.extend(accumulate(values))
        self.count = len(values)
        self.lo = min(values, default=math.inf)
        self.hi = max(values, default=-math.inf)
        self.blocks = 0
        self.value = 0.0

    def update(self, x: float) -> None:
        prefix = self.prefix
        # The first sum is x itself, as in cumsum: 0.0 + -0.0 would be 0.0.
        prefix.append(prefix[-1] + x if self.count else x)
        self.count += 1
        if x < self.lo:
            self.lo = x
        if x > self.hi:
            self.hi = x
        self.blocks = 0
