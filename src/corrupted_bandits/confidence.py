"""Closed-form confidence machinery for Huber-based bandit indices.

Everything here is a pure function of scalar parameters.  Infinite values are
meaningful: a radius or bonus of ``inf`` marks a configuration outside the
validity region of the underlying deviation bound (too few samples, or a
confidence level below the admissible floor) and triggers forced exploration
in the index policies.

All logarithms are natural.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .envs import check_eps, check_positive
from .estimators import floor_pow2

__all__ = [
    "HuberParams",
    "corruption_proxy",
    "chebyshev_p",
    "min_valid_delta",
    "concentration_radius",
    "seq_concentration_radius",
    "exploration_threshold",
    "huber_bias_bound",
    "huber_bonus",
    "seq_huber_bonus",
]

INF = math.inf

# Clamp constant inside the forced-exploration threshold: 9 / (14 * sqrt(2)).
_PROXY_FLOOR = 9.0 / (14.0 * math.sqrt(2.0))


def corruption_proxy(eps: float) -> float:
    """Sub-Gaussian scale of a Bernoulli(eps) corruption counter.

    ``sqrt((1 - 2 eps) / ln((1 - eps) / eps))`` for ``eps > 0``; defined as 0
    at ``eps = 0``, where every corruption term it multiplies vanishes.
    """
    check_eps(eps)
    if eps == 0.0:
        return 0.0
    return math.sqrt((1.0 - 2.0 * eps) / math.log((1.0 - eps) / eps))


def chebyshev_p(sigma: float, beta: float) -> float:
    """Distribution-free lower bound on P(|Y - E Y| <= beta/2): max(0, 1 - 4 sigma^2 / beta^2)."""
    check_positive(beta, "beta")
    return max(0.0, 1.0 - 4.0 * sigma * sigma / (beta * beta))


@dataclass(frozen=True)
class HuberParams:
    """Per-arm parameters feeding every radius and bonus formula.

    Attributes
    ----------
    beta : float > 0
        Clipping threshold of the influence function.
    sigma : float > 0
        Standard deviation of the inlier law.
    eps : float in [0, 0.5)
        Corruption rate assumed by the policy.
    p : float in (0, 1]
        Probability mass of the inlier law within ``beta/2`` of its mean.
        Must exceed ``5 * eps`` for any deviation bound to hold.
    bias : float >= 0
        Bound on the distance between the Huber functional and the inlier
        mean (0 for symmetric inliers).
    """

    beta: float
    sigma: float
    eps: float = 0.0
    p: float = 1.0
    bias: float = 0.0
    eps_proxy: float = field(init=False, repr=False)

    def __post_init__(self):
        check_positive(self.beta, "beta")
        check_positive(self.sigma, "sigma")
        check_eps(self.eps)
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if self.p <= 5.0 * self.eps:
            raise ValueError(
                f"p={self.p:g} must exceed 5*eps={5 * self.eps:g}; "
                "the deviation bound degenerates otherwise"
            )
        check_positive(self.bias, "bias", nonnegative=True)
        if self.beta < 4.0 * self.sigma:
            warnings.warn(
                f"beta={self.beta:g} below 4*sigma={4 * self.sigma:g}: outside "
                "the validity region of the deviation bound (allowed, the "
                "radii become conservative)",
                RuntimeWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "eps_proxy", corruption_proxy(self.eps))


def min_valid_delta(n: int, cfg: HuberParams) -> float:
    """Smallest admissible confidence level for an n-sample radius."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = 1.0 + 2.0 * math.sqrt(2.0) * cfg.eps_proxy
    gap = cfg.p - 5.0 * cfg.eps
    return math.exp(-n * 128.0 * gap * gap / (49.0 * k * k))


def concentration_radius(n: int, delta: float, cfg: HuberParams) -> float:
    """High-probability radius of the n-sample Huber estimate.

    ``inf`` when ``delta`` is below the admissible floor or the denominator
    ``p - sqrt(ln(1/delta) / (2n)) - eps`` is nonpositive.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if delta < min_valid_delta(n, cfg):
        return INF
    level = -math.log(delta)
    denom = cfg.p - math.sqrt(level / (2.0 * n)) - cfg.eps
    if denom <= 0.0:
        return INF
    beta, sigma = cfg.beta, cfg.sigma
    num = (
        sigma * math.sqrt(2.0 * level / n)
        + beta * level / (3.0 * n)
        + 2.0 * beta * cfg.eps_proxy * math.sqrt(level / n)
        + 2.0 * beta * cfg.eps
    )
    return num / denom


def seq_concentration_radius(n: int, delta: float, cfg: HuberParams) -> float:
    """Radius for the streaming estimate: batch radius plus an anchor-staleness term.

    The correction multiplies the radius at the last power-of-two anchor by
    ``1 / (p - sqrt(ln(1/delta)/(2n)) - eps) - 1``.  Validity additionally
    requires ``delta`` to be admissible at the anchor size.  Argument checks
    and the ``inf`` cases are those of the two :func:`concentration_radius`
    calls; the correction's denominator is the n-sample radius's own.
    """
    r_n = concentration_radius(n, delta, cfg)
    r_anchor = concentration_radius(floor_pow2(n), delta, cfg)
    if math.isinf(r_n) or math.isinf(r_anchor):
        return INF
    inner = cfg.p - math.sqrt(-math.log(delta) / (2.0 * n)) - cfg.eps
    return r_n + (1.0 / inner - 1.0) * r_anchor


def exploration_threshold(t: int, cfg: HuberParams) -> float:
    """Pull count below which an arm's confidence bonus is infinite.

    ``ln(t) * 98 / (128 (p - 5 eps)^2) * (1 + 2 sqrt(2) max(proxy, 9/(14 sqrt(2))))^2``;
    zero at ``t = 1``.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    gap = cfg.p - 5.0 * cfg.eps
    k = 1.0 + 2.0 * math.sqrt(2.0) * max(cfg.eps_proxy, _PROXY_FLOOR)
    return math.log(t) * 98.0 / (128.0 * gap * gap) * k * k


def huber_bias_bound(
    sigma: float,
    beta: float,
    q: float = 2.0,
    centered_moment: float | None = None,
) -> float:
    """Bound on |inlier mean - Huber functional| from a centered q-th moment.

    ``2 m_q / ((q - 1) beta^(q-1))``; at ``q = 2`` with ``m_2 = sigma^2`` this
    is ``2 sigma^2 / beta``.  Symmetric inliers should use 0 instead.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    check_positive(beta, "beta")
    check_positive(sigma, "sigma")
    if centered_moment is None:
        if q != 2:
            raise ValueError("centered_moment is required for q != 2")
        centered_moment = sigma * sigma
    check_positive(centered_moment, "centered_moment", nonnegative=True)
    if beta * beta < 9.0 * sigma * sigma:
        warnings.warn(
            f"beta^2={beta * beta:g} below 9*sigma^2={9 * sigma * sigma:g}: "
            "bias bound evaluated outside its validity region",
            RuntimeWarning,
            stacklevel=2,
        )
    return 2.0 * centered_moment / ((q - 1.0) * beta ** (q - 1.0))


def huber_bonus(s: int, t: int, cfg: HuberParams) -> float:
    """Confidence bonus for an arm with ``s`` pulls at step ``t``.

    Infinite while ``s`` is below the forced-exploration threshold (or zero);
    otherwise the ``delta = 1/t^2`` radius plus the bias bound.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0 or s < exploration_threshold(t, cfg):
        return INF
    return concentration_radius(s, 1.0 / (t * t), cfg) + cfg.bias


def seq_huber_bonus(s: int, t: int, cfg: HuberParams) -> float:
    """Streaming-estimate bonus; the exploration gate applies to the anchor size."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0 or floor_pow2(s) < exploration_threshold(t, cfg):
        return INF
    return seq_concentration_radius(s, 1.0 / (t * t), cfg) + cfg.bias
