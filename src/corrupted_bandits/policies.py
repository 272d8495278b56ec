"""Bandit policies sharing one interaction contract.

Every policy exposes ``select_arm(rng) -> int`` and ``update(arm, reward)``;
index policies rank arms by estimate-plus-bonus with uniform random
tie-breaking, and an infinite bonus always wins (forced exploration).

One policy instance serves one episode; state is never shared across
replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import confidence
from .confidence import HuberParams, chebyshev_p
from .envs import BanditEnv, check_positive
from .estimators import (
    SequentialHuber,
    _doubled,
    _huber_root_sorted,
    default_root_tol,
    median_of_means,
)

if TYPE_CHECKING:
    from .harness import ExperimentConfig

__all__ = [
    "HuberUCB",
    "SeqHuberUCB",
    "UCB1",
    "RobustUCBCatoni",
    "RobustUCBMOM",
    "Exp3",
    "POLICY_NAMES",
    "build_huber_params",
    "resolve_p",
    "make_policy",
    "PolicyBuild",
    "check_clip",
]

INF = math.inf
TIE_TOL = 1e-12


class _ArmBuffer:
    """One arm's batch Huber estimate over its sorted rewards, re-solved on every update.

    The threshold is ``beta``, or ``beta * sqrt(n)`` with ``grow`` (Catoni); each
    root is warm-started at the previous ``value``, which is 0 before any update.
    """

    def __init__(self, beta: float, grow: bool = False):
        self.beta = float(beta)
        self.grow = grow
        self._sorted = np.empty(64, dtype=float)
        self._prefix = np.zeros(65, dtype=float)
        self.count = 0
        self.value = 0.0

    def update(self, x: float) -> None:
        n = self.count
        if n == self._sorted.size:
            self._sorted = _doubled(self._sorted, n)
            self._prefix = _doubled(self._prefix, n + 1)
        pos = self._sorted[:n].searchsorted(x).item()
        self._sorted[pos + 1 : n + 1] = self._sorted[pos:n]
        self._sorted[pos] = x
        self.count = n + 1
        # Only the sums from the insert position on change.  cumsum adds in
        # order, so seeding it with prefix[pos] gives the full recompute's bits.
        tail = self._prefix[pos : n + 2]
        tail[1:] = self._sorted[pos : n + 1]
        np.cumsum(tail, out=tail)
        beta = self.beta * math.sqrt(self.count) if self.grow else self.beta
        self.value = self.huber_root(beta, self.value)

    def huber_root(self, beta: float, guess: float) -> float:
        n = self.count
        tol = default_root_tol(n, beta)
        return _huber_root_sorted(self._sorted[:n], self._prefix[: n + 1], beta, tol, guess)


class _BasePolicy:
    """Counts, step bookkeeping, the index rule, and argmax selection with random tie-breaking.

    An index policy holds one estimator per arm in ``estimators`` (each with
    ``update(x)`` and ``value``) and defines ``_bonus(arm, s, t)``, which
    :meth:`arm_index` adds to the estimate.  Policies with other per-arm state
    define their own ``update(arm, reward)`` and ``_estimate(arm, t)``.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one arm")
        self.k = k
        self.t = 0
        self.counts = np.zeros(k, dtype=np.int64)

    def arm_index(self, arm: int, t: int) -> float:
        """``inf`` for an unpulled arm or an infinite bonus, else estimate plus bonus."""
        s = self.counts.item(arm)
        if s == 0:
            return INF
        bonus = self._bonus(arm, s, t)
        if math.isinf(bonus):
            return INF
        return self._estimate(arm, t) + bonus

    def indices(self) -> np.ndarray:
        t = self.t + 1
        return np.array([self.arm_index(i, t) for i in range(self.k)])

    def select_arm(self, rng: np.random.Generator) -> int:
        t = self.t + 1
        vals = [self.arm_index(i, t) for i in range(self.k)]
        if any(map(math.isnan, vals)):
            raise ValueError(f"nan arm index at step {t}: {vals}")
        top = max(vals)
        if math.isinf(top):
            # Forced exploration: among the under-explored arms, favour the
            # least-pulled ones so the opening pulls cover every arm before
            # any repeat; ties broken uniformly.
            candidates = [i for i, v in enumerate(vals) if math.isinf(v)]
            counts = [self.counts.item(i) for i in candidates]
            fewest = min(counts)
            candidates = [i for i, c in zip(candidates, counts) if c == fewest]
        else:
            floor = top - TIE_TOL
            candidates = [i for i, v in enumerate(vals) if v >= floor]
        if len(candidates) == 1:
            return candidates[0]
        return candidates[rng.integers(len(candidates))]

    def _record(self, arm: int, reward: float) -> None:
        if not 0 <= arm < self.k:
            raise IndexError("arm out of range")
        if math.isnan(reward):
            raise ValueError(f"reward for arm {arm} is nan")
        self.counts[arm] += 1
        self.t += 1

    def update(self, arm: int, reward: float) -> None:
        self._record(arm, reward)
        self.estimators[arm].update(reward)

    def _estimate(self, arm: int, t: int) -> float:
        return self.estimators[arm].value


class HuberUCB(_BasePolicy):
    """Index policy on batch Huber estimates with corruption-aware bonuses.

    Each arm's parameters (``beta``, ``sigma``, ``eps``, ``p``, ``bias``)
    are fixed at construction.  The pulled arm's estimate is recomputed from
    its full buffer on every update; other arms keep their cached estimates.
    """

    def __init__(self, arm_params: Sequence[HuberParams]):
        super().__init__(len(arm_params))
        self.params = list(arm_params)
        self.estimators = [_ArmBuffer(p.beta) for p in self.params]

    def _bonus(self, arm: int, s: int, t: int) -> float:
        return confidence.huber_bonus(s, t, self.params[arm])


class SeqHuberUCB(_BasePolicy):
    """Index policy on streaming Huber estimates with staleness-widened bonuses."""

    def __init__(self, arm_params: Sequence[HuberParams]):
        super().__init__(len(arm_params))
        self.params = list(arm_params)
        self.estimators = [SequentialHuber(p.beta) for p in self.params]

    def _bonus(self, arm: int, s: int, t: int) -> float:
        return confidence.seq_huber_bonus(s, t, self.params[arm])


class UCB1(_BasePolicy):
    """Classical mean-plus-sqrt(2 ln t / s) index; non-robust baseline."""

    def __init__(self, k: int):
        super().__init__(k)
        self.sums = np.zeros(k)

    def update(self, arm: int, reward: float) -> None:
        self._record(arm, reward)
        self.sums[arm] += reward

    def _estimate(self, arm: int, t: int) -> float:
        return self.sums[arm] / self.counts.item(arm)

    def _bonus(self, arm: int, s: int, t: int) -> float:
        return math.sqrt(2.0 * math.log(t) / s)


class RobustUCBCatoni(_BasePolicy):
    """Heavy-tail-tuned baseline: clipping threshold grows like sigma * sqrt(s).

    Efficient without corruption, fragile with it: the growing threshold ends
    up tracking the corrupted mixture mean.  Bonus shape
    ``sigma * sqrt(8 ln t / s)``.
    """

    def __init__(self, sigmas: Sequence[float]):
        super().__init__(len(sigmas))
        self.sigmas = [float(check_positive(s, "sigmas")) for s in sigmas]
        self.estimators = [_ArmBuffer(s, grow=True) for s in self.sigmas]

    def _bonus(self, arm: int, s: int, t: int) -> float:
        return self.sigmas[arm] * math.sqrt(8.0 * math.log(t) / s)


class RobustUCBMOM(_BasePolicy):
    """Median-of-means baseline: ceil(8 ln t) blocks (capped at s), bonus 12 sigma sqrt(ln t / s)."""

    def __init__(self, sigmas: Sequence[float]):
        super().__init__(len(sigmas))
        self.sigmas = [float(check_positive(s, "sigmas")) for s in sigmas]
        # Chronological rewards per arm: block means depend on arrival order.
        self.rewards = [np.empty(64, dtype=float) for _ in range(self.k)]
        self._cache: list[tuple[int, int, float]] = [(-1, -1, 0.0)] * self.k

    @staticmethod
    def block_count(s: int, t: int) -> int:
        return max(1, min(s, math.ceil(8.0 * math.log(t))))

    def update(self, arm: int, reward: float) -> None:
        self._record(arm, reward)
        n = self.counts.item(arm) - 1
        if n == self.rewards[arm].size:
            self.rewards[arm] = _doubled(self.rewards[arm], n)
        self.rewards[arm][n] = reward

    def _estimate(self, arm: int, t: int) -> float:
        s = self.counts.item(arm)
        blocks = self.block_count(s, t)
        key_s, key_b, value = self._cache[arm]
        if key_s == s and key_b == blocks:
            return value
        value = median_of_means(self.rewards[arm][:s], blocks)
        self._cache[arm] = (s, blocks, value)
        return value

    def _bonus(self, arm: int, s: int, t: int) -> float:
        return 12.0 * self.sigmas[arm] * math.sqrt(math.log(t) / s)


def check_clip(clip: Sequence[float]) -> tuple[float, float]:
    """A reward range as a float pair ``(lo, hi)`` with ``lo < hi`` and a finite width."""
    if len(clip) != 2:
        raise ValueError(f"clip range must be a pair (lo, hi), got {clip!r}")
    lo, hi = float(clip[0]), float(clip[1])
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"clip range must be nondegenerate with a finite width, got {clip!r}")
    return lo, hi


class Exp3(_BasePolicy):
    """Exponential weights with importance-weighted gains on clipped rewards.

    Rewards are clipped into ``clip`` and rescaled to [0, 1] before the
    update (the weights diverge under unbounded observations otherwise); a
    reward at the bottom of the range leaves the weights untouched.
    Learning rate ``sqrt(ln k / (k n))`` for a known horizon ``n``.
    Weights are kept in log space.
    """

    def __init__(self, k: int, horizon: int, clip: tuple[float, float] = (-10.0, 10.0)):
        super().__init__(k)
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.clip = check_clip(clip)
        self.eta = math.sqrt(math.log(k) / (k * horizon))
        self.log_weights = np.zeros(k)
        # The probabilities of the last draw, handed from select_arm to the
        # update of the same step; the weights change only in update.
        self._drawn: np.ndarray | None = None

    def probabilities(self) -> np.ndarray:
        shifted = self.log_weights - self.log_weights.max()
        w = np.exp(shifted)
        return w / w.sum()

    def select_arm(self, rng: np.random.Generator) -> int:
        # rng.choice(k, p=probs) in its own steps: one uniform against the
        # normalised cdf, so the policy stream is consumed exactly as by choice.
        probs = self.probabilities()
        cdf = probs.cumsum()
        if math.isnan(cdf.item(-1)):
            raise ValueError(f"Exp3 probabilities contain nan: {probs}")
        cdf /= cdf[-1]
        self._drawn = probs
        return cdf.searchsorted(rng.random(), "right").item()

    def update(self, arm: int, reward: float) -> None:
        probs = self.probabilities() if self._drawn is None else self._drawn
        self._record(arm, reward)
        self._drawn = None
        lo, hi = self.clip
        clipped = min(max(reward, lo), hi)
        gain = (clipped - lo) / (hi - lo)
        self.log_weights[arm] += self.eta * gain / probs[arm]


# Policy name -> constructor from a build recipe; the order is POLICY_NAMES.
_CONSTRUCTORS = {
    "huber_ucb": lambda b: HuberUCB(b.arm_params),
    "seq_huber_ucb": lambda b: SeqHuberUCB(b.arm_params),
    "ucb1": lambda b: UCB1(b.k),
    "robust_ucb_catoni": lambda b: RobustUCBCatoni(b.sigmas),
    "robust_ucb_mom": lambda b: RobustUCBMOM(b.sigmas),
    "exp3": lambda b: Exp3(b.k, b.horizon, clip=b.exp3_clip),
}

POLICY_NAMES = tuple(_CONSTRUCTORS)

SIGMA_FLOOR = 1e-12

# Bias rule -> bound on |inlier mean - Huber functional| from an arm's sigma and beta.
BIAS_RULES = {
    "zero": lambda sigma, beta: 0.0,
    "second_moment": lambda sigma, beta: 2.0 * sigma * sigma / beta,
    "half_second_moment": lambda sigma, beta: sigma * sigma / beta,
}


def resolve_p(
    mode: str,
    value: float | None,
    sigma: float,
    beta: float,
    eps: float,
    inlier=None,
) -> float:
    """Pick the concentration probability ``p`` for one arm.

    ``explicit`` takes ``value`` as given.  ``exact`` integrates the inlier
    law over ``[mean - beta/2, mean + beta/2]``.  ``chebyshev`` (the default
    mode elsewhere) uses the distribution-free bound, floored at 3/4 (the
    canonical value at ``beta = 4 sigma``) so that small-``beta``
    configurations remain runnable; when ``5 eps`` crowds out the floor, the
    midpoint of ``(5 eps, 1)`` is used instead.  In every mode the result must
    exceed ``5 eps`` or the configuration is rejected.
    """
    if mode == "explicit":
        if value is None:
            raise ValueError("explicit p mode requires a value")
        p = float(value)
    elif mode == "exact":
        if inlier is None:
            raise ValueError("exact p mode requires the inlier law")
        mu = inlier.mean()
        p = inlier.interval_prob(mu - beta / 2.0, mu + beta / 2.0)
    elif mode == "chebyshev":
        if 5.0 * eps >= 1.0:
            raise ValueError("5*eps >= 1: no valid p exists")
        floor = 0.75 if 5.0 * eps < 0.75 else 0.5 * (1.0 + 5.0 * eps)
        p = max(chebyshev_p(sigma, beta), floor)
    else:
        raise ValueError("p mode must be 'explicit', 'exact', or 'chebyshev'")
    if not 0.0 < p <= 1.0 or p <= 5.0 * eps:
        raise ValueError(
            f"resolved p={p:g} unusable (needs 5*eps={5 * eps:g} < p <= 1)"
        )
    return p


def _sigmas(env: BanditEnv) -> tuple[float, ...]:
    return tuple(max(float(s), SIGMA_FLOOR) for s in env.sigmas)


def build_huber_params(env: BanditEnv, config: ExperimentConfig) -> list[HuberParams]:
    """Per-arm parameters from an environment's analytic inlier moments and a resolved config."""
    params, eps = [], config.eps_assumed
    for arm, sigma in zip(env.arms, _sigmas(env)):
        beta = config.beta_mult * sigma
        p = resolve_p(config.p_mode, config.p_value, sigma, beta, eps, inlier=arm.inlier)
        bias = BIAS_RULES[config.bias_rule](sigma, beta)
        params.append(HuberParams(beta=beta, sigma=sigma, eps=eps, p=p, bias=bias))
    return params


@dataclass(frozen=True)
class PolicyBuild:
    """Picklable recipe for constructing a fresh policy per replication."""

    name: str
    k: int
    horizon: int
    arm_params: tuple[HuberParams, ...]
    sigmas: tuple[float, ...]
    exp3_clip: tuple[float, float]

    def __post_init__(self):
        if self.name not in _CONSTRUCTORS:
            raise ValueError(f"unknown policy {self.name!r}; choose from {POLICY_NAMES}")

    def build(self):
        return _CONSTRUCTORS[self.name](self)


def make_policy(config: ExperimentConfig, env: BanditEnv) -> PolicyBuild:
    """The config's policy, with its preset defaults filled in, as a build recipe for ``env``."""
    cfg = config.resolved()
    huber = cfg.policy in ("huber_ucb", "seq_huber_ucb")
    return PolicyBuild(
        name=cfg.policy,
        k=env.k,
        horizon=cfg.horizon,
        arm_params=tuple(build_huber_params(env, cfg)) if huber else (),
        sigmas=_sigmas(env),
        exp3_clip=cfg.exp3_clip,
    )
