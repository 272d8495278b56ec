"""Closed-form confidence machinery for the bandit indices.

Everything here is a pure function of scalar parameters.  Each index policy
adds one bonus ``bonus(s, t, cfg)`` from here to its estimate: ``cfg`` is an
arm's ``HuberParams`` for the Huber pair, its sigma for the Catoni and
median-of-means baselines, and unused by UCB1.  Infinite values are
meaningful: a radius or bonus of ``inf`` marks a configuration outside the
validity region of the underlying deviation bound (too few samples, or a
confidence level below the admissible floor) and triggers forced exploration
in the index policies.

All logarithms are natural.
"""

from __future__ import annotations

import math
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
    "ucb1_bonus",
    "catoni_bonus",
    "mom_bonus",
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
    # 0 once beta^2 underflows: the limit of the bound as beta -> 0
    return max(0.0, 1.0 - 4.0 * sigma * sigma / (beta * beta)) if beta * beta else 0.0


@dataclass(frozen=True, slots=True)  # slots: the bonus reads these fields per arm and step
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

    The derived ``beta_valid`` flags ``beta >= 4 sigma``, the deviation bound's region.
    """

    beta: float
    sigma: float
    eps: float = 0.0
    p: float = 1.0
    bias: float = 0.0
    # Derived once; each is the left-associative prefix of the expression reading it.
    eps_proxy: float = field(init=False, repr=False)
    gap: float = field(init=False, repr=False)  # p - 5 eps
    valid_denom: float = field(init=False, repr=False)  # 49 k^2, k = 1 + 2 sqrt(2) proxy
    explore_denom: float = field(init=False, repr=False)  # 128 gap^2
    explore_k: float = field(init=False, repr=False)  # 1 + 2 sqrt(2) max(proxy, floor)
    beta_proxy: float = field(init=False, repr=False)  # 2 beta proxy
    beta_eps: float = field(init=False, repr=False)  # 2 beta eps
    beta_valid: bool = field(init=False, repr=False)  # beta >= 4 sigma

    def __post_init__(self):
        check_positive(self.beta, "beta")
        check_positive(self.sigma, "sigma")
        check_eps(self.eps)
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        gap = self.p - 5.0 * self.eps  # <= 0 exactly when p <= 5 eps
        if gap <= 0.0 or 128.0 * gap * gap == 0.0:
            raise ValueError(
                f"p={self.p:g} must exceed 5*eps={5 * self.eps:g} with 128 (p - 5 eps)^2 > 0; "
                "the deviation bound degenerates otherwise"
            )
        check_positive(self.bias, "bias", nonnegative=True)
        proxy = corruption_proxy(self.eps)
        k = 1.0 + 2.0 * math.sqrt(2.0) * proxy
        derived = dict(
            eps_proxy=proxy, gap=gap, valid_denom=49.0 * k * k, explore_denom=128.0 * gap * gap,
            explore_k=1.0 + 2.0 * math.sqrt(2.0) * max(proxy, _PROXY_FLOOR),
            beta_proxy=2.0 * self.beta * proxy, beta_eps=2.0 * self.beta * self.eps,
            beta_valid=self.beta >= 4.0 * self.sigma,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)  # frozen: past the dataclass __setattr__


def min_valid_delta(n: int, cfg: HuberParams) -> float:
    """Smallest admissible confidence level for an n-sample radius."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(-n * 128.0 * cfg.gap * cfg.gap / cfg.valid_denom)


def _radius(n: int, delta: float, level: float, cfg: HuberParams) -> tuple[float, float]:
    """The n-sample radius at ``delta`` (``level = ln(1/delta)``) and its denominator."""
    if delta < min_valid_delta(n, cfg):
        return INF, 0.0
    denom = cfg.p - math.sqrt(level / (2.0 * n)) - cfg.eps
    if denom <= 0.0:
        return INF, denom
    num = (
        cfg.sigma * math.sqrt(2.0 * level / n)
        + cfg.beta * level / (3.0 * n)
        + cfg.beta_proxy * math.sqrt(level / n)
        + cfg.beta_eps
    )
    return num / denom, denom


def _seq_radius(n: int, anchor: int, delta: float, level: float, cfg: HuberParams) -> float:
    """The n-sample radius plus the staleness term of the radius at ``anchor``."""
    r_n, inner = _radius(n, delta, level, cfg)
    r_anchor = r_n if anchor == n else _radius(anchor, delta, level, cfg)[0]
    if math.isinf(r_n) or math.isinf(r_anchor):
        return INF
    return r_n + (1.0 / inner - 1.0) * r_anchor


def _check_level(n: int, delta: float) -> float:  # ln(1/delta), for the public radii
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    return -math.log(delta)


def concentration_radius(n: int, delta: float, cfg: HuberParams) -> float:
    """High-probability radius of the n-sample Huber estimate.

    ``inf`` when ``delta`` is below the admissible floor or the denominator
    ``p - sqrt(ln(1/delta) / (2n)) - eps`` is nonpositive.
    """
    return _radius(n, delta, _check_level(n, delta), cfg)[0]


def seq_concentration_radius(n: int, delta: float, cfg: HuberParams) -> float:
    """Radius for the streaming estimate: batch radius plus an anchor-staleness term.

    The correction multiplies the radius at the last power-of-two anchor by
    ``1 / (p - sqrt(ln(1/delta)/(2n)) - eps) - 1``.  Validity additionally
    requires ``delta`` to be admissible at the anchor size.  Argument checks
    and the ``inf`` cases are those of :func:`concentration_radius` at ``n``
    and at the anchor; the correction's denominator is the n-sample radius's own.
    """
    level = _check_level(n, delta)
    return _seq_radius(n, floor_pow2(n), delta, level, cfg)


def exploration_threshold(t: int, cfg: HuberParams) -> float:
    """Pull count below which an arm's confidence bonus is infinite.

    ``ln(t) * 98 / (128 (p - 5 eps)^2) * (1 + 2 sqrt(2) max(proxy, 9/(14 sqrt(2))))^2``;
    zero at ``t = 1``.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    return math.log(t) * 98.0 / cfg.explore_denom * cfg.explore_k * cfg.explore_k


def huber_bias_bound(sigma: float, beta: float) -> float:
    """Bound ``2 sigma^2 / beta`` on |inlier mean - Huber functional|, from the second moment.

    Symmetric inliers should use 0 instead.  It is a bound where
    ``beta^2 >= 9 sigma^2`` and is evaluated as printed anywhere.
    """
    check_positive(beta, "beta")
    check_positive(sigma, "sigma")
    return 2.0 * (sigma * sigma) / beta


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
    delta = 1.0 / (t * t)
    return _radius(s, delta, -math.log(delta), cfg)[0] + cfg.bias


def seq_huber_bonus(s: int, t: int, cfg: HuberParams) -> float:
    """Streaming-estimate bonus; the exploration gate applies to the anchor size."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return INF
    anchor = 1 << (s.bit_length() - 1)
    if anchor < exploration_threshold(t, cfg):
        return INF
    delta = 1.0 / (t * t)
    return _seq_radius(s, anchor, delta, -math.log(delta), cfg) + cfg.bias


def ucb1_bonus(s: int, t: int, cfg: None) -> float:
    """UCB1's ``sqrt(2 ln t / s)`` for ``s >= 1`` pulls at step ``t``; ``cfg`` is unused."""
    return math.sqrt(2.0 * math.log(t) / s)


def catoni_bonus(s: int, t: int, sigma: float) -> float:
    """The Catoni baseline's ``sigma sqrt(8 ln t / s)`` for ``s >= 1`` pulls at step ``t``."""
    return sigma * math.sqrt(8.0 * math.log(t) / s)


def mom_bonus(s: int, t: int, sigma: float) -> float:
    """The median-of-means baseline's ``12 sigma sqrt(ln t / s)`` for ``s >= 1`` pulls at step ``t``."""
    return 12.0 * sigma * math.sqrt(math.log(t) / s)
