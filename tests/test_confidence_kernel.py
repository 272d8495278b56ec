"""The per-arm constants of ``HuberParams`` and the one radius kernel, pinned bit for bit.

The reference functions below are the radius and bonus formulas as they were
before the constants were derived once per arm: every constant is recomputed
from ``p``, ``eps``, ``beta`` and the corruption proxy on each call.  The
package must return the same float, ``inf`` included, for every input, so a
constant folded in a different order fails here.
"""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrupted_bandits import confidence
from corrupted_bandits.confidence import _PROXY_FLOOR, HuberParams
from corrupted_bandits.envs import PRESETS
from corrupted_bandits.estimators import floor_pow2
from corrupted_bandits.harness import ExperimentConfig, resolve
from corrupted_bandits.policies import HuberUCB, SeqHuberUCB

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

INF = math.inf


def ref_min_valid_delta(n, cfg):
    if n < 1:
        raise ValueError("n must be >= 1")
    k = 1.0 + 2.0 * math.sqrt(2.0) * cfg.eps_proxy
    gap = cfg.p - 5.0 * cfg.eps
    return math.exp(-n * 128.0 * gap * gap / (49.0 * k * k))


def ref_concentration_radius(n, delta, cfg):
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if delta < ref_min_valid_delta(n, cfg):
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


def ref_seq_concentration_radius(n, delta, cfg):
    r_n = ref_concentration_radius(n, delta, cfg)
    r_anchor = ref_concentration_radius(floor_pow2(n), delta, cfg)
    if math.isinf(r_n) or math.isinf(r_anchor):
        return INF
    inner = cfg.p - math.sqrt(-math.log(delta) / (2.0 * n)) - cfg.eps
    return r_n + (1.0 / inner - 1.0) * r_anchor


def ref_exploration_threshold(t, cfg):
    if t < 1:
        raise ValueError("t must be >= 1")
    gap = cfg.p - 5.0 * cfg.eps
    k = 1.0 + 2.0 * math.sqrt(2.0) * max(cfg.eps_proxy, _PROXY_FLOOR)
    return math.log(t) * 98.0 / (128.0 * gap * gap) * k * k


def ref_huber_bonus(s, t, cfg):
    if t < 1:
        raise ValueError("t must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0 or s < ref_exploration_threshold(t, cfg):
        return INF
    return ref_concentration_radius(s, 1.0 / (t * t), cfg) + cfg.bias


def ref_seq_huber_bonus(s, t, cfg):
    if t < 1:
        raise ValueError("t must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0 or floor_pow2(s) < ref_exploration_threshold(t, cfg):
        return INF
    return ref_seq_concentration_radius(s, 1.0 / (t * t), cfg) + cfg.bias


def _bits(x):
    return float(x).hex()


def _outcome(fn, *args):
    """The result's bits, or the exception a degenerate input raises (both sides must agree)."""
    try:
        return _bits(fn(*args))
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_matches_reference(cfg, s, t, delta=None):
    """Every public radius and bonus at ``(s, t)`` equals its reference bit for bit."""
    pairs = [
        (confidence.exploration_threshold, ref_exploration_threshold, (t, cfg)),
        (confidence.huber_bonus, ref_huber_bonus, (s, t, cfg)),
        (confidence.seq_huber_bonus, ref_seq_huber_bonus, (s, t, cfg)),
    ]
    if s >= 1:
        pairs.append((confidence.min_valid_delta, ref_min_valid_delta, (s, cfg)))
        for d in (1.0 / (t * t),) if delta is None else (1.0 / (t * t), delta):
            pairs.append((confidence.concentration_radius, ref_concentration_radius, (s, d, cfg)))
            pairs.append(
                (confidence.seq_concentration_radius, ref_seq_concentration_radius, (s, d, cfg))
            )
    for fn, ref, args in pairs:
        assert _outcome(fn, *args) == _outcome(ref, *args), (fn.__name__, args)


def boundary_counts(cfg, t):
    """Pull counts where a gate flips at step ``t``: the forced-exploration
    threshold, powers of two (the streaming anchor) and the smallest ``n``
    whose ``min_valid_delta`` admits ``delta = 1/t^2``; each with its neighbours."""
    threshold = math.ceil(ref_exploration_threshold(t, cfg))
    counts = {threshold - 1, threshold, threshold + 1}
    for j in range(26):
        counts |= {2**j - 1, 2**j, 2**j + 1}
    delta = 1.0 / (t * t)
    lo, hi = 1, 2**40
    while lo < hi:
        mid = (lo + hi) // 2
        if delta < ref_min_valid_delta(mid, cfg):
            lo = mid + 1
        else:
            hi = mid
    counts |= {lo - 1, lo, lo + 1}
    return sorted(c for c in counts if c >= 0)


def preset_params():
    """Every preset's per-arm parameters at the corruption rates the suite runs."""
    params = []
    for env in sorted(PRESETS):
        for eps in (0.0, 0.03, 0.05):
            for policy in ("huber_ucb", "seq_huber_ucb"):
                config = ExperimentConfig(env=env, eps_true=eps, policy=policy, horizon=10, reps=1)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # beta < 4 sigma
                    arm_params = resolve(config)[2].arm_params
                params += [pytest.param(cfg, id=f"{env}-{eps}-{policy}-arm{arm}")
                           for arm, cfg in enumerate(arm_params)]
    return params


STEPS = (1, 2, 3, 10, 100, 1000, 5000, 50_000, 10**6, 10**7)


class TestMatchesReference:
    @pytest.mark.parametrize("cfg", preset_params())
    def test_preset_params_at_every_gate(self, cfg):
        for t in STEPS:
            for s in boundary_counts(cfg, t):
                assert_matches_reference(cfg, s, t)

    @given(
        st.data(),
        st.floats(0.0, 0.19),
        st.floats(1e-6, 1e6),
        st.floats(1e-6, 1e6),
        st.floats(0.0, 1e6),
        st.lists(st.tuples(st.integers(0, 10**7), st.integers(1, 10**7)), min_size=1, max_size=20),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_random_params(self, data, eps, beta, sigma, bias, steps, delta):
        p = data.draw(st.floats(5.0 * eps, 1.0, exclude_min=True))
        gap = p - 5.0 * eps
        if 128.0 * gap * gap == 0.0:
            # The exploration threshold would divide by 0 (p = 5e-324 at eps = 0).
            with pytest.raises(ValueError, match=r"with 128 \(p - 5 eps\)\^2 > 0"):
                HuberParams(beta=beta, sigma=sigma, eps=eps, p=p, bias=bias)
            return
        cfg = HuberParams(beta=beta, sigma=sigma, eps=eps, p=p, bias=bias)
        for s, t in steps:
            assert_matches_reference(cfg, s, t, delta)
            # the gates at this step, which uniform draws of s almost never hit
            threshold = _outcome(ref_exploration_threshold, t, cfg)
            if not threshold.startswith(("0x", "-0x")):
                continue  # an infinite threshold
            threshold = math.ceil(float.fromhex(threshold))
            for near in (threshold - 1, threshold, threshold + 1, floor_pow2(threshold + 1) * 2):
                assert_matches_reference(cfg, max(near, 0), t, delta)


def _all_fields(cfg):
    return {f.name: _bits(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


class TestDerivedFields:
    def test_fields_are_the_expression_prefixes(self):
        cfg = HuberParams(beta=3.0, sigma=0.7, eps=0.05, p=0.75, bias=0.1)
        k = 1.0 + 2.0 * math.sqrt(2.0) * cfg.eps_proxy
        gap = cfg.p - 5.0 * cfg.eps
        assert cfg.gap == gap
        assert cfg.valid_denom == 49.0 * k * k
        assert cfg.explore_denom == 128.0 * gap * gap
        assert cfg.explore_k == 1.0 + 2.0 * math.sqrt(2.0) * max(cfg.eps_proxy, _PROXY_FLOOR)
        assert cfg.beta_proxy == 2.0 * cfg.beta * cfg.eps_proxy
        assert cfg.beta_eps == 2.0 * cfg.beta * cfg.eps

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.05, 0.19])
    def test_pickle_round_trip_keeps_derived_fields(self, eps):
        cfg = HuberParams(beta=2.5, sigma=0.9, eps=eps, p=0.97, bias=0.2)
        restored = pickle.loads(pickle.dumps(cfg))
        assert _all_fields(restored) == _all_fields(cfg)
        assert restored == cfg

    @pytest.mark.parametrize("change", [{}, {"eps": 0.03}, {"beta": 7.0}, {"p": 0.5}, {"bias": 1.0}])
    def test_replace_rederives(self, change):
        base = dict(beta=2.5, sigma=0.9, eps=0.05, p=0.97, bias=0.2)
        replaced = dataclasses.replace(HuberParams(**base), **change)
        assert _all_fields(replaced) == _all_fields(HuberParams(**{**base, **change}))

    def test_derived_fields_are_not_init_arguments(self):
        with pytest.raises(TypeError):
            HuberParams(beta=1.0, sigma=1.0, gap=0.5)


@pytest.mark.parametrize("policy_cls, name", [(HuberUCB, "huber_bonus"), (SeqHuberUCB, "seq_huber_bonus")])
def test_policy_calls_bonus_through_module_once_per_arm_and_step(monkeypatch, policy_cls, name):
    build = resolve(ExperimentConfig(env="student", eps_true=0.05, policy="huber_ucb", horizon=10, reps=1))[2]
    policy = policy_cls(build.arm_params)
    k = policy.k
    for arm in range(k):
        policy.update(arm, 0.5 * arm)
    calls = []
    real = getattr(confidence, name)

    def counting(s, t, cfg):
        calls.append(policy.t)
        return real(s, t, cfg)

    monkeypatch.setattr(confidence, name, counting)
    rng = np.random.default_rng(0)
    steps = 200
    for _ in range(steps):
        arm = policy.select_arm(rng)
        policy.update(arm, float(rng.standard_t(3.0)))
    assert len(calls) == steps * k
    assert all(calls.count(t) == k for t in range(k, k + steps))
