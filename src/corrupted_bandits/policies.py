"""Bandit policies sharing one interaction contract.

Every policy exposes ``select_arm(rng) -> int`` and ``update(arm, reward)``.
The five index policies share one rule: each holds an estimator per arm and
names a bonus closed form in :mod:`confidence`; an arm's index is its
estimate plus its bonus, ``inf`` for an unpulled arm or an infinite bonus,
which always wins (forced exploration).  Ties break uniformly at random.
This module holds only policies and the ``PolicyBuild`` recipe that constructs
one; the per-arm estimators are in :mod:`estimators`, and an index policy
reads each arm's pull count and estimate from its estimator.  A recipe comes
from an experiment's config through ``harness.resolve``, which reads every
per-arm parameter.

One policy instance serves one episode; state is never shared across
replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import confidence
from .confidence import HuberParams
from .envs import check_positive
from .estimators import SequentialHuber, _ArmBuffer, _RewardLog, _RunningMean, median_of_means

__all__ = [
    "HuberUCB",
    "SeqHuberUCB",
    "UCB1",
    "RobustUCBCatoni",
    "RobustUCBMOM",
    "Exp3",
    "POLICY_NAMES",
    "PolicyBuild",
    "check_clip",
]

INF = math.inf
TIE_TOL = 1e-12


class _BasePolicy:
    """The step counter and the checks on each recorded pull."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one arm")
        self.k = k
        self.t = 0

    def _record(self, arm: int, reward: float) -> None:
        if not 0 <= arm < self.k:
            raise IndexError("arm out of range")
        if math.isnan(reward):
            raise ValueError(f"reward for arm {arm} is nan")
        self.t += 1


class _IndexPolicy(_BasePolicy):
    """An estimator and parameters per arm, a bonus closed form, and the one index rule.

    ``estimators[arm]`` has ``update(x)``, ``count`` and ``value``, and is the
    arm's only record.  The bonus is the function named ``_bonus_name`` in
    :mod:`confidence`, called as ``bonus(s, t, params[arm])``.  A policy whose
    estimate depends on the step defines ``_estimate(arm, t)``, which sets and
    returns ``estimators[arm].value`` for step ``t``; it runs for every pulled
    arm before each pass.
    """

    _estimate = None

    def __init__(self, arm_params: Sequence, estimators: list):
        super().__init__(len(estimators))
        self.params = list(arm_params)
        self.estimators = estimators

    def update(self, arm: int, reward: float) -> None:
        self._record(arm, reward)
        self.estimators[arm].update(reward)

    def _index_pass(self, t: int) -> list[float]:
        """Every arm's index at step t: ``inf`` if unpulled or its bonus is, else estimate plus bonus."""
        bonus = getattr(confidence, self._bonus_name)  # through the module, once per pass
        if self._estimate is not None:
            for arm, est in enumerate(self.estimators):
                if est.count:
                    self._estimate(arm, t)
        vals = []
        for cfg, est in zip(self.params, self.estimators):
            s = est.count
            b = bonus(s, t, cfg) if s else INF
            vals.append(INF if math.isinf(b) else est.value + b)
        return vals

    def select_arm(self, rng: np.random.Generator) -> int:
        t = self.t + 1
        vals = self._index_pass(t)
        if any(map(math.isnan, vals)):
            raise ValueError(f"nan arm index at step {t}: {vals}")
        top = max(vals)
        if math.isinf(top):
            # Forced exploration: among the under-explored arms, favour the
            # least-pulled ones so the opening pulls cover every arm before
            # any repeat; ties broken uniformly.
            candidates = [i for i, v in enumerate(vals) if math.isinf(v)]
            counts = [self.estimators[i].count for i in candidates]
            fewest = min(counts)
            candidates = [i for i, c in zip(candidates, counts) if c == fewest]
        else:
            floor = top - TIE_TOL
            candidates = [i for i, v in enumerate(vals) if v >= floor]
        if len(candidates) == 1:
            return candidates[0]
        return candidates[rng.integers(len(candidates))]


class HuberUCB(_IndexPolicy):
    """Index policy on batch Huber estimates with corruption-aware bonuses.

    Each arm's parameters (``beta``, ``sigma``, ``eps``, ``p``, ``bias``)
    are fixed at construction.  The pulled arm's estimate is recomputed from
    its full buffer on every update; other arms keep their cached estimates.
    """

    _bonus_name = "huber_bonus"

    def __init__(self, arm_params: Sequence[HuberParams]):
        super().__init__(arm_params, [_ArmBuffer(p.beta) for p in arm_params])


class SeqHuberUCB(_IndexPolicy):
    """Index policy on streaming Huber estimates with staleness-widened bonuses."""

    _bonus_name = "seq_huber_bonus"

    def __init__(self, arm_params: Sequence[HuberParams]):
        super().__init__(arm_params, [SequentialHuber(p.beta) for p in arm_params])


class UCB1(_IndexPolicy):
    """Classical mean-plus-sqrt(2 ln t / s) index; non-robust baseline."""

    _bonus_name = "ucb1_bonus"

    def __init__(self, k: int):
        super().__init__([None] * k, [_RunningMean() for _ in range(k)])


class RobustUCBCatoni(_IndexPolicy):
    """Heavy-tail-tuned baseline: clipping threshold grows like sigma * sqrt(s).

    Efficient without corruption, fragile with it: the growing threshold ends
    up tracking the corrupted mixture mean.  Bonus shape
    ``sigma * sqrt(8 ln t / s)``.
    """

    _bonus_name = "catoni_bonus"

    def __init__(self, sigmas: Sequence[float]):
        sigmas = [float(check_positive(s, "sigmas")) for s in sigmas]
        super().__init__(sigmas, [_ArmBuffer(s, grow=True) for s in sigmas])


class RobustUCBMOM(_IndexPolicy):
    """Median-of-means baseline: ceil(8 ln t) blocks (capped at s), bonus 12 sigma sqrt(ln t / s)."""

    _bonus_name = "mom_bonus"

    def __init__(self, sigmas: Sequence[float]):
        sigmas = [float(check_positive(s, "sigmas")) for s in sigmas]
        super().__init__(sigmas, [_RewardLog() for _ in sigmas])

    @staticmethod
    def block_count(s: int, t: int) -> int:
        return max(1, min(s, math.ceil(8.0 * math.log(t))))

    def _estimate(self, arm: int, t: int) -> float:
        log = self.estimators[arm]
        blocks = self.block_count(log.count, t)
        if log.blocks != blocks:
            log.value = median_of_means(log, blocks)
            log.blocks = blocks
        return log.value


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

    def __init__(self, k: int, horizon: int, clip: tuple[float, float]):
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
        """Normalised weights; all nan when a log weight is infinite (inf - inf)."""
        top = self.log_weights.max().item()
        if math.isinf(top):
            return np.full(self.k, math.nan)
        w = np.exp(self.log_weights - top)
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


@dataclass(frozen=True)
class PolicyBuild:
    """Picklable recipe for constructing a fresh policy per replication."""

    name: str
    horizon: int
    arm_params: tuple[HuberParams, ...]
    sigmas: tuple[float, ...]
    exp3_clip: tuple[float, float]

    def __post_init__(self):
        if self.name not in _CONSTRUCTORS:
            raise ValueError(f"unknown policy {self.name!r}; choose from {POLICY_NAMES}")

    @property
    def k(self) -> int:
        return len(self.sigmas)

    def build(self):
        return _CONSTRUCTORS[self.name](self)

