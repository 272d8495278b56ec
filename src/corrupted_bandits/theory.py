"""Evaluable closed forms: KL controls, pull-count lower bounds, regret upper bounds.

These functions evaluate statements as printed, without reconciling the
looser simplified variants against the sharp ones; each carries its own
shifted-gap definition.  The pull-count upper bounds take one arm's gap
``delta`` and read every other quantity (sigma, eps, beta, p, bias) from its
:class:`HuberParams`.  ``inf`` encodes regimes where no finite bound exists;
no function here raises or warns for a value outside its validity region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confidence import HuberParams
from .envs import check_eps, check_positive

__all__ = [
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
]

INF = math.inf


def _check_alpha_eps(alpha: float, eps: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    check_eps(eps)


@dataclass(frozen=True)
class BernoulliPair:
    """The corrupted mirrored pair on {0, 1}: success probabilities ``q0`` (bad arm) and ``q1``."""

    q0: float
    q1: float


def corrupted_bernoulli_pair(alpha: float, eps: float) -> BernoulliPair:
    """Corrupt the mirrored Bernoulli pair (alpha, 1 - alpha) adversarially.

    The bad arm gains mass at 1 and the good arm gains mass at 0, shrinking
    the observable gap as much as an eps-mixture can.
    """
    _check_alpha_eps(alpha, eps)
    keep = (1.0 - eps) * (1.0 - alpha)
    return BernoulliPair(q0=1.0 - keep, q1=keep)


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
    It is evaluated as ``(s/2) ln(1 + 2 s / (2 - s))`` with ``s = g / sigma``
    exact and rounded once (it cancels near the window's lower end, which is
    compared exactly as ``gap^2 (1 - 2 eps) <= 4 sigma^2 eps^2``).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    check_positive(gap, "gap", nonnegative=True)
    check_positive(sigma, "sigma")
    ratio = (1.0 - 2.0 * eps) / eps  # ln(1 + ratio) = ln((1 - eps) / eps); inf for subnormal eps
    uniform = (1.0 - 2.0 * eps) * (math.log1p(ratio) if ratio < INF else -math.log(eps))
    from fractions import Fraction  # here, not at import: it loads decimal (about 3 ms)
    g, sd, e = Fraction(gap), Fraction(sigma), Fraction(eps)
    low_flag = g * g * (1 - 2 * e) <= 4 * sd * sd * e * e
    high = None
    if not low_flag and gap < 2.0 * sigma:
        s = float(g / sd * (1 - e) - 2 * e)
        high = (s / 2.0) * math.log1p(2.0 * s / (2.0 - s))
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


def _log_steps(n):
    """``ln n`` for a step count, or per step for an array of them, each by ``math.log``
    (``np.log`` rounds a few integers differently, which would move recorded overlays);
    an array feeds ``np.fromiter`` step by step, with no list of the steps in between."""
    steps = np.asarray(n)
    if np.any(steps < 1):
        raise ValueError("n must be >= 1")
    return np.fromiter(map(math.log, steps), float, steps.size) if steps.ndim else math.log(n)


def max_pulls_huber_ucb(n, delta: float, cfg: HuberParams):
    """Expected suboptimal pulls of the batch-estimator index policy by step n (or each step).

    ``inf`` unless the shifted gap ``(delta - 2 bias)(p - eps) - 8 beta eps`` is positive.
    The branch threshold ``12 sigma^2 / beta * (sqrt(2) + 2 (beta/sigma) proxy)^2``
    selects the large-gap form below it being exceeded, the variance-driven
    form otherwise (ties go to the variance-driven form).
    """
    check_positive(delta, "delta", nonnegative=True)
    log_n = _log_steps(n)
    shifted = (delta - 2.0 * cfg.bias) * (cfg.p - cfg.eps) - 8.0 * cfg.beta * cfg.eps
    if shifted <= 0:
        return log_n * 0.0 + INF  # inapplicable, at every step
    sigma, beta = cfg.sigma, cfg.beta
    mix = math.sqrt(2.0) + 2.0 * (beta / sigma) * cfg.eps_proxy
    threshold = 12.0 * sigma * sigma / beta * mix * mix
    if shifted > threshold:
        lead = 32.0 * beta / (3.0 * shifted)
    else:
        lead = 50.0 * sigma * sigma / (9.0 * shifted * shifted) * mix * mix
    return log_n * max(lead, _second_entry(cfg)) + 10.0 * (log_n + 1.0)


def _max_pulls_explicit(n, delta: float, cfg: HuberParams, spread, large, small, tail):
    """Pull bound on the shifted gap ``delta (p - eps) - 32 sigma eps``, with printed constants.

    Branch threshold ``spread * sigma (1 + 4 sqrt(2) proxy)^2``; ``large`` and
    ``small`` are each branch's (coefficient, floor); ``tail`` multiplies ``ln n + 1``.
    ``inf`` where the shifted gap is nonpositive; an array ``n`` reuses the constants.
    """
    check_positive(delta, "delta", nonnegative=True)
    log_n = _log_steps(n)
    sigma = cfg.sigma
    shifted = delta * (cfg.p - cfg.eps) - 32.0 * sigma * cfg.eps
    if shifted <= 0:
        return log_n * 0.0 + INF  # inapplicable, at every step
    proxy = cfg.eps_proxy
    threshold = spread * sigma * (1.0 + 4.0 * math.sqrt(2.0) * proxy) ** 2
    if shifted > threshold:
        coeff, floor = large
        lead = max(sigma / shifted, floor)
    else:
        coeff, floor = small
        lead = max(sigma * sigma / (shifted * shifted) * (1.0 + 32.0 * proxy * proxy), floor)
    out = coeff * log_n  # coeff * log_n * lead + tail * (log_n + 1.0), in place
    out *= lead
    log_n += 1.0
    log_n *= tail
    out += log_n
    return out


def max_pulls_huber_ucb_simplified(n, delta: float, cfg: HuberParams):
    """Looser explicit-constant form for symmetric inliers with beta = 4 sigma.

    Uses its own shifted gap ``delta (p - eps) - 32 sigma eps``.  Valid (as a
    dominating value) while the corruption proxy stays at or below
    ``4 / (5 sqrt(ln 9))``; see the dominance tests.
    """
    return _max_pulls_explicit(n, delta, cfg, 6.0, (43.0, 10.0), (23.0, 18.0), 10.0)


def max_pulls_seq_huber_ucb(n, delta: float, cfg: HuberParams):
    """Suboptimal-pull bound for the streaming-estimator policy.

    Shifted gap ``delta (p - eps) - 32 sigma eps``; branch threshold
    ``18 sigma (1 + 4 sqrt(2) proxy)^2``.
    """
    return _max_pulls_explicit(n, delta, cfg, 18.0, (128.0, 2.0), (80.0, 3.0), 28.0)

