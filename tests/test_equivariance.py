"""Scale equivariance of estimates and whole episodes: an oracle that needs no reference.

Estimator level: scale a sample and the estimator's threshold (beta, or the
Catoni sigma) by a power of two ``c = 2**k``, ``|k| <= 40``; the estimate
must scale by exactly ``c``.

Episode level: multiply every reward by ``c`` (the ``Scaled`` law below), and
scale Exp3's clip range with it; ``resolve`` then scales every arm's sigma,
beta and bias bound by ``c`` exactly and leaves p unchanged.  Every quantity a
policy compares scales exactly, while p, the exploration threshold and the
block counts do not depend on ``c``, so every action must be bit-identical.
UCB1 is left out: its bonus has no scale.

The strict xfails mark where an absolute constant breaks the relation: the
tie tolerance ``policies.TIE_TOL`` at large scales, and the Huber solver's
absolute tolerance at small ones.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrupted_bandits.envs import BanditEnv, CorruptedArm, make_env
from corrupted_bandits.estimators import (
    SequentialHuber,
    catoni_estimate,
    huber_estimate,
    median_of_means,
)
from corrupted_bandits.harness import SIGMA_FLOOR, ExperimentConfig, resolve, run_episode

SEED, REPS, HORIZON = 3, (0, 1, 2), 2000
SETTINGS = [("bernoulli", 0.0), ("bernoulli", 0.05), ("student", 0.05), ("pareto", 0.05)]
POLICIES = ("huber_ucb", "seq_huber_ucb", "robust_ucb_catoni", "robust_ucb_mom", "exp3")
SCALES = (2.0**-10, 0.5, 2.0, 2.0**10)
INDEX_POLICIES = POLICIES[:4]
# The scales at which an absolute constant breaks the relation (the strict xfails below).
BROKEN = [("bernoulli", eps, "robust_ucb_mom", 2.0**60) for eps in (0.0, 0.05)] + [
    ("student", 0.05, policy, 2.0**-40) for policy in INDEX_POLICIES]


@dataclass(frozen=True)
class Scaled:
    """The law of ``c * X`` for ``X ~ law``; it draws from the stream exactly as ``law`` does."""

    law: object
    c: float

    def mean(self) -> float:
        return self.c * self.law.mean()

    def variance(self) -> float:
        return self.c * self.c * self.law.variance()

    def sample(self, rng) -> float:
        return self.c * self.law.sample(rng)

    def interval_prob(self, lo: float, hi: float) -> float:
        return self.law.interval_prob(lo / self.c, hi / self.c)


def _scaled_env(env: BanditEnv, c: float) -> BanditEnv:
    return BanditEnv(tuple(CorruptedArm(Scaled(arm.inlier, c), Scaled(arm.outlier, c), arm.eps)
                           for arm in env.arms))


def _recipe(preset: str, eps: float, policy: str, c: float):
    """The environment and recipe at scale ``c``; ``c == 1`` is the preset itself."""
    config = ExperimentConfig(env=preset, eps_true=eps, policy=policy, horizon=HORIZON, seed=SEED)
    env = make_env(preset, eps)
    if c != 1.0:
        env = _scaled_env(env, c)
        if policy == "exp3":
            lo, hi = config.resolved().exp3_clip
            config = ExperimentConfig(**{**config.to_dict(), "exp3_clip": (c * lo, c * hi)})
    _, env, build = resolve(config, env)
    return env, build


def _actions(key: tuple) -> tuple:
    """Each rep's actions at ``key = (preset, eps, policy, c)``."""
    env, build = _recipe(*key)
    return tuple(run_episode(env, build, SEED, rep).actions for rep in REPS)


@pytest.fixture(scope="module")
def episodes() -> dict:
    """The actions of every episode this module compares, run on two processes."""
    keys = [(preset, eps, policy, c) for preset, eps in SETTINGS for policy in POLICIES
            for c in (1.0, *SCALES)] + BROKEN
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        return dict(zip(keys, pool.map(_actions, keys)))


def _check_equivariant(preset: str, eps: float, policy: str, c: float, episodes: dict) -> None:
    env, build = _recipe(preset, eps, policy, c)
    base_env, base = _recipe(preset, eps, policy, 1.0)
    # Every sigma stays above the floor, which would otherwise not scale.
    assert min(base_env.sigmas) * c > SIGMA_FLOOR
    assert build.sigmas == tuple(c * s for s in base.sigmas)
    assert [(a.beta, a.sigma, a.bias, a.p) for a in build.arm_params] == [
        (c * a.beta, c * a.sigma, c * a.bias, a.p) for a in base.arm_params]
    for rep, want, got in zip(REPS, episodes[preset, eps, policy, 1.0],
                              episodes[preset, eps, policy, c]):
        differ = (want != got).nonzero()[0]
        assert differ.size == 0, f"rep {rep} diverges at step {differ[0] + 1}"


@pytest.mark.parametrize("c", SCALES, ids=lambda c: f"c={c:g}")
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("preset, eps", SETTINGS, ids=[f"{p}-{e:g}" for p, e in SETTINGS])
def test_actions_are_scale_equivariant(preset, eps, policy, c, episodes):
    _check_equivariant(preset, eps, policy, c, episodes)


def _sequential_values(xs, beta):
    """``SequentialHuber``'s value after every update."""
    est, values = SequentialHuber(beta), []
    for x in xs:
        est.update(x)
        values.append(est.value)
    return values


# Estimator -> its values on a sample at a threshold (beta, or the Catoni sigma).
THRESHOLD_ESTIMATORS = {
    "huber_estimate": lambda xs, beta: [huber_estimate(xs, beta)],
    "catoni_estimate": lambda xs, sigma: [catoni_estimate(xs, sigma)],
    "SequentialHuber": _sequential_values,
}
# Magnitudes under 2**-900 are drawn as 0, so that every scaled sample, and
# every sum and difference of samples, stays a normal float: scaling those by
# 2**k is exact, which the relation presumes.
samples = st.lists(st.floats(-1e6, 1e6).map(lambda x: x if abs(x) >= 2.0**-900 else 0.0),
                   min_size=1, max_size=50)
# With k >= -10, c * threshold >= 2**-14, above the scaled thresholds (under
# about 2**-17) at which the solver's tolerance was seen to break the relation.
thresholds = st.floats(2.0**-4, 2.0**10)


def _check_scaled(estimate, xs, threshold, k):
    c = 2.0**k
    assert estimate([c * x for x in xs], c * threshold) == [c * v for v in estimate(xs, threshold)]


@pytest.mark.parametrize("name", THRESHOLD_ESTIMATORS)
@given(xs=samples, threshold=thresholds, k=st.integers(-10, 40))
def test_estimates_are_scale_equivariant(name, xs, threshold, k):
    _check_scaled(THRESHOLD_ESTIMATORS[name], xs, threshold, k)


@given(xs=samples, data=st.data(), k=st.integers(-40, 40))
def test_median_of_means_is_scale_equivariant(xs, data, k):
    blocks = data.draw(st.integers(1, len(xs)), label="blocks")
    c = 2.0**k
    assert median_of_means([c * x for x in xs], blocks) == c * median_of_means(xs, blocks)


TIE_RULE = ("TIE_TOL = 1e-12 is absolute: at this scale two indices that differ by under "
            "1e-12 of the unscaled rewards no longer tie")


SOLVER_TOL = ("huber_estimate's absolute tolerance 1e-9 n max(beta, 1) exceeds n beta at this "
              "scale, so every theta passes and the bracket's midpoint comes back")


def _xfail(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@_xfail(TIE_RULE)
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_mom_at_two_to_the_sixty(eps, episodes):
    _check_equivariant("bernoulli", eps, "robust_ucb_mom", 2.0**60, episodes)


@pytest.mark.parametrize("policy", [
    pytest.param("huber_ucb", marks=_xfail(SOLVER_TOL)),
    pytest.param("seq_huber_ucb", marks=_xfail(SOLVER_TOL)),
    pytest.param("robust_ucb_catoni", marks=_xfail(SOLVER_TOL)),
    pytest.param("robust_ucb_mom", marks=_xfail(
        "TIE_TOL = 1e-12 is absolute: at this scale indices that differ by up to 1e-12 tie")),
])
def test_student_at_two_to_the_minus_forty(policy, episodes):
    _check_equivariant("student", 0.05, policy, 2.0**-40, episodes)


SCALED_TOL = ("for beta < 1, huber_estimate's tolerance 1e-9 n does not scale with the sample: "
              "at a small enough c * beta a point off the root passes it, such as the bracket's "
              "midpoint (huber_estimate([0, 0, 2] * 2**-28, 0.5 * 2**-28) is 2**-28, not 2**-30)")


@_xfail(SCALED_TOL)
@pytest.mark.parametrize("name", THRESHOLD_ESTIMATORS)
@given(xs=samples, threshold=thresholds, k=st.integers(-40, -11))
def test_estimates_below_the_solver_tolerance(name, xs, threshold, k):
    _check_scaled(THRESHOLD_ESTIMATORS[name], xs, threshold, k)
