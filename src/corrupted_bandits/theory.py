"""Evaluable closed forms: KL controls, pull-count lower bounds, regret upper bounds.

These functions evaluate statements as printed, without reconciling the
looser simplified variants against the sharp ones; each carries its own
shifted-gap definition.  ``inf`` encodes regimes where no finite bound exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .confidence import HuberParams
from .envs import check_eps, check_positive

__all__ = [
    "GapProfile",
    "InapplicableBound",
    "student_kl_bound",
    "corrupted_bernoulli_pair",
    "corrupted_bernoulli_kl",
    "corrupted_bernoulli_kl_bounds",
    "alpha_for_gap_ratio",
    "discrete_kl",
    "min_pulls_student",
    "min_pulls_bernoulli",
    "max_pulls_huber_ucb",
    "max_pulls_huber_ucb_simplified",
    "max_pulls_seq_huber_ucb",
    "regret_decomposition",
]

INF = math.inf


class InapplicableBound(ValueError):
    """A regret bound whose shifted gap is nonpositive: no finite value exists."""


@dataclass(frozen=True)
class GapProfile:
    """Suboptimality gap with the scale and corruption level it lives at."""

    delta: float
    sigma: float
    eps: float = 0.0

    def __post_init__(self):
        check_positive(self.delta, "delta", nonnegative=True)
        check_positive(self.sigma, "sigma")
        check_eps(self.eps)

    @property
    def corrupted_gap(self) -> float:
        """Effective distinguishability gap under corruption: delta (1 - eps) - 2 eps sigma."""
        return self.delta * (1.0 - self.eps) - 2.0 * self.eps * self.sigma

    def shifted_gap(self, p: float, beta: float, bias: float = 0.0) -> float:
        """Upper-bound analogue ``(delta - 2 bias)(p - eps) - 8 beta eps``."""
        return (self.delta - 2.0 * bias) * (p - self.eps) - 8.0 * beta * self.eps


def student_kl_bound(df: float, gap: float) -> float:
    """KL upper bound between unit-scale Student laws ``gap`` apart.

    Two-branch form; the branches are evaluated exactly as printed and need
    not meet at ``gap = 1``.
    """
    if df <= 1:
        raise ValueError("df must exceed 1")
    check_positive(gap, "gap", nonnegative=True)
    coeff = (df + 1.0) ** 2 / (5.0 * math.sqrt(df))
    if gap <= 1.0:
        return 3.0 ** (df - 1.0) * coeff * gap * gap
    return (df + 1.0) * math.log(gap) + math.log(3.0**df * coeff)


def _check_alpha_eps(alpha: float, eps: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    check_eps(eps)


@dataclass(frozen=True)
class BernoulliPair:
    """Two corrupted two-point laws on {0, 1}, mirrored around 1/2.

    ``q0``/``q1`` are the success probabilities of the corrupted bad and good
    arms.  ``gap``/``sigma`` describe the uncorrupted pair; ``corrupted_gap``
    is the exact mean difference of the corrupted laws,
    ``gap (1 - eps) - eps``, which is dominated by the conventional
    ``gap (1 - eps) - 2 eps sigma`` since ``2 sigma <= 1``.
    """

    alpha: float
    eps: float
    q0: float
    q1: float

    @property
    def gap(self) -> float:
        return 1.0 - 2.0 * self.alpha

    @property
    def sigma(self) -> float:
        return math.sqrt(self.alpha * (1.0 - self.alpha))

    @property
    def corrupted_gap(self) -> float:
        return self.q1 - self.q0


def corrupted_bernoulli_pair(alpha: float, eps: float) -> BernoulliPair:
    """Corrupt the mirrored Bernoulli pair (alpha, 1 - alpha) adversarially.

    The bad arm gains mass at 1 and the good arm gains mass at 0, shrinking
    the observable gap as much as an eps-mixture can.
    """
    _check_alpha_eps(alpha, eps)
    keep = (1.0 - eps) * (1.0 - alpha)
    return BernoulliPair(alpha=alpha, eps=eps, q0=1.0 - keep, q1=keep)


def corrupted_bernoulli_kl(alpha: float, eps: float) -> float:
    """Exact KL divergence between the two corrupted laws of the mirrored pair."""
    _check_alpha_eps(alpha, eps)
    a = 1.0 - 2.0 * eps - 2.0 * alpha + 2.0 * eps * alpha
    b = eps + alpha - eps * alpha
    return a * math.log1p(a / b)


def corrupted_bernoulli_kl_bounds(
    gap: float, sigma: float, eps: float
) -> tuple[float, float | None, bool]:
    """The three KL controls: uniform bound, regime-restricted bound, vanishing flag.

    Returns ``(uniform, high_regime, low_regime_flag)``.  The middle entry is
    ``None`` outside its validity window ``2 sigma eps / sqrt(1 - 2 eps) < gap
    < 2 sigma``; the flag is True exactly when some smaller corruption level
    already makes the pair indistinguishable.

    The regime bound carries a factor 2 inside the logarithm,
    ``(g/(2 sigma)) ln(1 + 2 g / (2 sigma - g))`` with ``g = gap (1 - eps) -
    2 eps sigma``: that is the form the derivation actually establishes, and
    the only one that dominates the exact two-point KL throughout the window.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    shifted = GapProfile(gap, sigma, eps).corrupted_gap
    uniform = (1.0 - 2.0 * eps) * math.log1p((1.0 - 2.0 * eps) / eps)
    low_threshold = 2.0 * sigma * eps / math.sqrt(1.0 - 2.0 * eps)
    low_flag = gap <= low_threshold
    high = None
    if low_threshold < gap < 2.0 * sigma:
        high = (shifted / (2.0 * sigma)) * math.log1p(
            2.0 * shifted / (2.0 * sigma - shifted)
        )
    return uniform, high, low_flag


def alpha_for_gap_ratio(gap: float, sigma: float) -> float:
    """Mirror-pair parameter with uncorrupted gap-to-sigma ratio ``gap / sigma``.

    Solves ``(1 - 2 alpha) / sqrt(alpha (1 - alpha)) = gap / sigma`` for
    ``alpha`` in (0, 1/2); lets abstract ``(gap, sigma)`` grids be compared
    against the exact two-point construction, whose KL depends only on the
    ratio.
    """
    r = check_positive(gap, "gap") / check_positive(sigma, "sigma")
    return 0.5 * (1.0 - r / math.sqrt(4.0 + r * r))


def discrete_kl(p: dict, q: dict) -> float:
    """KL divergence between finite distributions given as point -> mass maps."""
    total_p = sum(p.values())
    total_q = sum(q.values())
    if not (math.isclose(total_p, 1.0, abs_tol=1e-9) and math.isclose(total_q, 1.0, abs_tol=1e-9)):
        raise ValueError("distributions must sum to 1")
    kl = 0.0
    for x, mass in p.items():
        if mass == 0.0:
            continue
        if x not in q or q[x] == 0.0:
            raise ValueError(f"support mismatch at point {x!r}")
        kl += mass * math.log(mass / q[x])
    return kl


def min_pulls_student(gap: float, sigma: float) -> float:
    """Log-scale lower bound on suboptimal pulls for unit-scale heavy tails.

    ``sigma^2 / (51 gap^2)`` or ``1 / (4 ln(gap/sigma) + 22)``, whichever is
    larger (the second term only competes where its denominator is positive).
    """
    check_positive(gap, "gap")
    check_positive(sigma, "sigma")
    first = sigma * sigma / (51.0 * gap * gap)
    log_denom = 4.0 * math.log(gap / sigma) + 22.0
    if log_denom <= 0.0:
        return first
    return max(first, 1.0 / log_denom)


def min_pulls_bernoulli(gap: float, sigma: float, eps: float) -> float:
    """Log-scale lower bound on suboptimal pulls under mirrored-pair corruption.

    The reciprocal of a KL control from :func:`corrupted_bernoulli_kl_bounds`:
    the uniform bound for a gap of ``2 sigma`` or more (a corruption-only
    constant), the regime bound inside the distinguishable window, and ``inf``
    at or below the indistinguishability threshold (no finite bound exists).
    A regime bound that underflows to 0 also gives ``inf``: the reciprocal
    exceeds the float range.
    """
    check_positive(gap, "gap")
    uniform, high, _ = corrupted_bernoulli_kl_bounds(gap, sigma, eps)
    if gap >= 2.0 * sigma:
        return 1.0 / uniform
    return 1.0 / high if high else INF


def _second_entry(cfg: HuberParams) -> float:
    return 4.0 / (cfg.gap * cfg.gap) * cfg.explore_k * cfg.explore_k


def max_pulls_huber_ucb(n: int, gap: GapProfile, cfg: HuberParams) -> float:
    """Expected suboptimal pulls of the batch-estimator index policy by step n.

    Shifted gap ``(delta - 2 bias)(p - eps) - 8 beta eps`` must be positive.
    The branch threshold ``12 sigma^2 / beta * (sqrt(2) + 2 (beta/sigma) proxy)^2``
    selects the large-gap form below it being exceeded, the variance-driven
    form otherwise (ties go to the variance-driven form).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shifted = gap.shifted_gap(cfg.p, cfg.beta, cfg.bias)
    if shifted <= 0:
        raise InapplicableBound("shifted gap must be positive; bound inapplicable")
    sigma, beta = cfg.sigma, cfg.beta
    mix = math.sqrt(2.0) + 2.0 * (beta / sigma) * cfg.eps_proxy
    threshold = 12.0 * sigma * sigma / beta * mix * mix
    log_n = math.log(n)
    if shifted > threshold:
        lead = 32.0 * beta / (3.0 * shifted)
    else:
        lead = 50.0 * sigma * sigma / (9.0 * shifted * shifted) * mix * mix
    return log_n * max(lead, _second_entry(cfg)) + 10.0 * (log_n + 1.0)


def _max_pulls_explicit(n, gap: GapProfile, cfg: HuberParams, spread, large, small, tail) -> float:
    """Pull bound on the shifted gap ``delta (p - eps) - 32 sigma eps``, with printed constants.

    Branch threshold ``spread * sigma (1 + 4 sqrt(2) proxy)^2``; ``large`` and
    ``small`` are each branch's (coefficient, floor); ``tail`` multiplies ``ln n + 1``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sigma = cfg.sigma
    shifted = gap.delta * (cfg.p - cfg.eps) - 32.0 * sigma * cfg.eps
    if shifted <= 0:
        raise InapplicableBound("shifted gap must be positive; bound inapplicable")
    proxy = cfg.eps_proxy
    threshold = spread * sigma * (1.0 + 4.0 * math.sqrt(2.0) * proxy) ** 2
    log_n = math.log(n)
    if shifted > threshold:
        coeff, floor = large
        lead = max(sigma / shifted, floor)
    else:
        coeff, floor = small
        lead = max(sigma * sigma / (shifted * shifted) * (1.0 + 32.0 * proxy * proxy), floor)
    return coeff * log_n * lead + tail * (log_n + 1.0)


def max_pulls_huber_ucb_simplified(n: int, gap: GapProfile, cfg: HuberParams) -> float:
    """Looser explicit-constant form for symmetric inliers with beta = 4 sigma.

    Uses its own shifted gap ``delta (p - eps) - 32 sigma eps``.  Valid (as a
    dominating value) while the corruption proxy stays at or below
    ``4 / (5 sqrt(ln 9))``; see the dominance tests.
    """
    return _max_pulls_explicit(n, gap, cfg, 6.0, (43.0, 10.0), (23.0, 18.0), 10.0)


def max_pulls_seq_huber_ucb(n: int, gap: GapProfile, cfg: HuberParams) -> float:
    """Suboptimal-pull bound for the streaming-estimator policy.

    Shifted gap ``delta (p - eps) - 32 sigma eps``; branch threshold
    ``18 sigma (1 + 4 sqrt(2) proxy)^2``.
    """
    return _max_pulls_explicit(n, gap, cfg, 18.0, (128.0, 2.0), (80.0, 3.0), 28.0)


def regret_decomposition(gaps: Sequence[float], pulls: Sequence[float]) -> float:
    """Regret as the gap-weighted sum of (expected) pull counts."""
    g = np.asarray(gaps, dtype=float)
    t = np.asarray(pulls, dtype=float)
    if g.shape != t.shape:
        raise ValueError("gaps and pulls must have matching lengths")
    if np.any(g < 0):
        raise ValueError("gaps must be nonnegative")
    return float(g @ t)
