import math
from types import SimpleNamespace

import numpy as np
import pytest

from corrupted_bandits import confidence
from corrupted_bandits.confidence import HuberParams, exploration_threshold
from corrupted_bandits.envs import PRESETS, BanditEnv, CorruptedArm, Dirac, Gaussian, make_env
from corrupted_bandits.estimators import floor_pow2, huber_estimate, median_of_means
from corrupted_bandits.harness import (
    BIAS_RULES,
    SIGMA_FLOOR,
    ExperimentConfig,
    resolve,
    resolve_p,
    run_episode,
)
from corrupted_bandits.policies import (
    TIE_TOL,
    Exp3,
    HuberUCB,
    RobustUCBCatoni,
    RobustUCBMOM,
    SeqHuberUCB,
    UCB1,
    POLICY_NAMES,
    PolicyBuild,
    _ArmBuffer,
    _IndexPolicy,
    check_clip,
)

INF = math.inf


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox([seed]))


def params(k=2, beta=4.0, sigma=1.0, eps=0.0, p=0.75, bias=0.0):
    return [HuberParams(beta=beta, sigma=sigma, eps=eps, p=p, bias=bias) for _ in range(k)]


# One factory per policy, each over three arms.
POLICY_FACTORIES = [
    lambda: UCB1(3),
    lambda: Exp3(3, horizon=500, clip=(0.0, 1.0)),
    lambda: RobustUCBCatoni([1.0, 1.0, 1.0]),
    lambda: RobustUCBMOM([1.0, 1.0, 1.0]),
    lambda: HuberUCB(params(k=3)),
    lambda: SeqHuberUCB(params(k=3)),
]


class _GivenIndices(_IndexPolicy):
    """A policy whose indices and counts are given, to drive select_arm directly."""

    def __init__(self, vals, counts):
        super().__init__([None] * len(vals), [SimpleNamespace(count=c) for c in counts])
        self.vals = list(vals)

    def _index_pass(self, t):
        return self.vals


def numpy_select(vals, counts, rng):
    """The array form of ``_IndexPolicy.select_arm``, kept as its reference."""
    vals = np.asarray(vals, dtype=float)
    top = vals.max()
    if math.isinf(top):
        candidates = np.flatnonzero(np.isinf(vals))
        pulls = np.asarray(counts)[candidates]
        candidates = candidates[pulls == pulls.min()]
    else:
        candidates = np.flatnonzero(vals >= top - TIE_TOL)
    if candidates.size == 1:
        return int(candidates[0])
    return int(candidates[rng.integers(candidates.size)])


@pytest.mark.parametrize("factory", POLICY_FACTORIES)
def test_counts_are_the_bincount_of_actions_at_every_step(factory):
    pol = factory()
    rng, rewards = rng_for(5), np.random.default_rng(5)
    actions = []
    for _ in range(1500):
        arm = pol.select_arm(rng)
        pol.update(arm, float(rewards.standard_t(2)) + 0.3 * arm)
        actions.append(arm)
        assert np.array_equal(pol.counts, np.bincount(actions, minlength=pol.k))
    assert pol.counts.dtype == np.int64 and pol.t == 1500


class TestSelection:
    @pytest.mark.parametrize(
        "vals, counts",
        [
            ([0.5, 0.5, 0.3], [3, 3, 3]),
            ([0.5, 0.5 - 5e-13, 0.5 + 5e-13, 0.5 - 2e-12], [1, 2, 3, 4]),
            ([1.0, 3.0, 2.0], [5, 5, 5]),
            ([-INF, -INF, 0.25], [2, 2, 2]),
            ([INF, 0.2, INF], [0, 5, 0]),
            ([INF, INF, INF, INF], [2, 1, 1, 1]),
            ([INF, 7.0, INF, INF], [3, 9, 3, 4]),
        ],
    )
    def test_matches_numpy_reference(self, vals, counts):
        for seed in range(50):
            ours, ref = rng_for(seed), rng_for(seed)
            pol = _GivenIndices(vals, counts)
            assert pol.select_arm(ours) == numpy_select(vals, counts, ref)
            assert ours.random() == ref.random()

    @pytest.mark.parametrize("vals", [[0.1, math.nan, 0.3], [math.nan, INF, 0.0], [INF, math.nan]])
    def test_nan_index_raises(self, vals):
        pol = _GivenIndices(vals, [1] * len(vals))
        with pytest.raises(ValueError, match="nan arm index"):
            pol.select_arm(rng_for(0))

    def test_all_unpulled_uniform(self):
        pol = UCB1(4)
        rng = rng_for(1)
        picks = [pol.select_arm(rng) for _ in range(4000)]
        freqs = np.bincount(picks, minlength=4) / 4000
        assert np.all(np.abs(freqs - 0.25) < 0.05)

    def test_finite_tie_break_even(self):
        pol = UCB1(2)
        for arm in (0, 1):
            pol.update(arm, 0.5)
        rng = rng_for(2)
        picks = [pol.select_arm(rng) for _ in range(10_000)]
        assert abs(np.mean(picks) - 0.5) < 0.05

    def test_single_infinite_index_wins(self):
        pol = UCB1(3)
        pol.update(0, 0.9)
        pol.update(1, 0.9)
        rng = rng_for(3)
        assert all(pol.select_arm(rng) == 2 for _ in range(50))

    def test_under_explored_arm_forced(self):
        cfg = params(k=2, eps=0.05)
        pol = HuberUCB(cfg)
        t = 5000
        threshold = exploration_threshold(t, cfg[0])
        rich = int(threshold) + 50
        poor = int(threshold) - 10
        rng = rng_for(4)
        for _ in range(rich):
            pol.update(0, float(rng.normal()))
        for _ in range(poor):
            pol.update(1, float(rng.normal()))
        pol.t = t - 1  # force the step counter to the probe point
        vals = pol._index_pass(t)
        assert vals[1] == INF
        assert vals[0] < INF
        assert pol.select_arm(rng_for(5)) == 1


class TestAccounting:
    @pytest.mark.parametrize("factory", POLICY_FACTORIES)
    def test_counts_sum_to_steps(self, factory):
        pol = factory()
        rng = rng_for(6)
        for _ in range(500):
            arm = pol.select_arm(rng)
            pol.update(arm, float(rng.normal()))
        assert pol.counts.sum() == 500 == pol.t

    @pytest.mark.parametrize("factory", POLICY_FACTORIES)
    def test_nan_reward_rejected_before_any_change(self, factory):
        pol = factory()
        rng = rng_for(9)
        for _ in range(20):
            arm = pol.select_arm(rng)
            pol.update(arm, float(rng.normal()))
        counts, t = pol.counts.copy(), pol.t
        arm = pol.select_arm(rng)
        with pytest.raises(ValueError, match="reward for arm .* is nan"):
            pol.update(arm, math.nan)
        assert np.array_equal(pol.counts, counts) and pol.t == t

    @pytest.mark.parametrize("factory", POLICY_FACTORIES)
    @pytest.mark.parametrize("arm", [-1, 3, 5])
    def test_invalid_arm_rejected(self, factory, arm):
        pol = factory()
        pol.update(0, 1.0)
        counts = pol.counts.copy()
        with pytest.raises(IndexError, match="arm out of range"):
            pol.update(arm, 1.0)
        assert np.array_equal(pol.counts, counts) and pol.t == 1


class TestHuberUCBIndex:
    def test_unpulled_infinite(self):
        pol = HuberUCB(params(k=2))
        assert pol._index_pass(1)[0] == INF

    def test_identical_buffers_identical_indices(self):
        pol = HuberUCB(params(k=2))
        rng = rng_for(7)
        data = rng.normal(size=1500)
        for x in data:
            pol.update(0, float(x))
        for x in data:
            pol.update(1, float(x))
        t = pol.t + 1
        vals = pol._index_pass(t)
        assert vals[0] == vals[1]

    def test_index_composition(self):
        from corrupted_bandits.confidence import huber_bonus

        cfg = params(k=1, bias=0.1)
        pol = HuberUCB(cfg)
        rng = rng_for(8)
        data = rng.normal(size=2000)
        for x in data:
            pol.update(0, float(x))
        t = 2100
        expected = huber_estimate(data, 4.0) + huber_bonus(2000, t, cfg[0])
        assert pol._index_pass(t)[0] == pytest.approx(expected, rel=1e-9)

    def test_update_locality(self):
        pol = HuberUCB(params(k=2))
        for x in (0.1, 0.5, -0.2):
            pol.update(0, x)
        for x in (1.0, 2.0):
            pol.update(1, x)
        cached = pol.estimators[1].value
        pol.update(0, 10.0)
        assert pol.estimators[1].value == cached
        assert pol.estimators[1].count == 2


class TestSeqHuberUCB:
    def test_power_of_two_estimates_match_batch(self):
        cfg = params(k=1, eps=0.05)
        pol = SeqHuberUCB(cfg)
        rng = rng_for(10)
        data = rng.standard_t(3, size=512)
        for i, x in enumerate(data, 1):
            pol.update(0, float(x))
            if i == floor_pow2(i):
                assert pol.estimators[0].value == huber_estimate(data[:i], 4.0)

    def test_index_dominates_batch_policy_at_anchor_counts(self):
        cfg = params(k=1, eps=0.05)
        batch = HuberUCB(cfg)
        seq = SeqHuberUCB(cfg)
        rng = rng_for(11)
        data = rng.normal(size=512)
        for x in data:
            batch.update(0, float(x))
            seq.update(0, float(x))
        t = 2000
        bi, si = batch._index_pass(t)[0], seq._index_pass(t)[0]
        if not (math.isinf(bi) or math.isinf(si)):
            assert si >= bi

    def test_anchor_recompute_only_for_pulled_arm(self):
        cfg = params(k=2)
        pol = SeqHuberUCB(cfg)
        for _ in range(8):
            pol.update(0, 1.0)
        touched_before = pol.estimators[1].solver_samples
        pol.update(0, 1.0)
        assert pol.estimators[1].solver_samples == touched_before


class TestUCB1:
    def test_hand_value(self):
        pol = UCB1(2)
        for x in (0.0, 1.0, 0.0, 1.0):
            pol.update(0, x)
        expected = 0.5 + math.sqrt(2 * math.log(100) / 4)
        assert pol._index_pass(100)[0] == pytest.approx(expected, rel=1e-12)

    def test_single_arm_degenerate(self):
        pol = UCB1(1)
        pol.update(0, 0.3)
        assert math.isfinite(pol._index_pass(2)[0])


class TestRobustBaselines:
    def test_unpulled_infinite(self):
        assert RobustUCBCatoni([1.0])._index_pass(5)[0] == INF
        assert RobustUCBMOM([1.0])._index_pass(5)[0] == INF

    def test_mom_block_cap(self):
        assert RobustUCBMOM.block_count(3, 10_000) == 3
        assert RobustUCBMOM.block_count(500, 100) == math.ceil(8 * math.log(100))
        assert RobustUCBMOM.block_count(1, 2) == 1

    def test_catoni_estimate_tracks_threshold(self):
        pol = RobustUCBCatoni([1.0])
        data = [0.0, 0.0, 0.0, 8.0]
        for x in data:
            pol.update(0, x)
        from corrupted_bandits.estimators import catoni_estimate

        assert pol.estimators[0].value == pytest.approx(catoni_estimate(data, 1.0), abs=1e-9)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            RobustUCBCatoni([0.0])


_MOM_NAN_INDEX = pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="the running sums overflow or hold +-inf, so a later block difference is "
    "inf - inf = nan and select_arm raises on a nan index",
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("outlier", [
    1e6,
    1e60,
    -1e60,
    1e200,
    pytest.param(1e308, marks=_MOM_NAN_INDEX),
    pytest.param(math.inf, marks=_MOM_NAN_INDEX),
    pytest.param(-math.inf, marks=_MOM_NAN_INDEX),
])
def test_mom_runs_through_dirac_outliers(outlier):
    # N(0/0.5/1, 1) inliers with Dirac outliers at eps = 0.05: no crash and no warning.
    env = BanditEnv(tuple(
        CorruptedArm(Gaussian(mu, 1.0), Dirac(outlier), 0.05) for mu in (0.0, 0.5, 1.0)
    ))
    build = PolicyBuild(name="robust_ucb_mom", horizon=2000, arm_params=(),
                        sigmas=(1.0, 1.0, 1.0), exp3_clip=(-10.0, 10.0))
    result = run_episode(env, build, seed=0)
    assert result.corrupted.any() and result.actions.size == 2000


class TestBufferGrowth:
    def test_estimates_match_from_scratch_after_growth(self):
        from corrupted_bandits.estimators import catoni_estimate

        # Every arm starts at capacity 64; arm 0 gets 133 of the 200
        # interleaved pulls and grows twice, arm 1 once.
        mom = RobustUCBMOM([1.0, 1.0])
        huber = HuberUCB(params(k=2))
        seq = SeqHuberUCB(params(k=2))
        catoni = RobustUCBCatoni([1.0, 1.0])
        rng = rng_for(15)
        history = [[], []]
        for step in range(200):
            arm = 1 if step % 3 == 0 else 0
            x = float(rng.standard_t(3))
            for pol in (mom, huber, seq, catoni):
                pol.update(arm, x)
            history[arm].append(x)
            data = np.array(history[arm])
            t = mom.t + 1
            blocks = RobustUCBMOM.block_count(data.size, t)
            assert mom._estimate(arm, t) == median_of_means(data, blocks)
            assert huber.estimators[arm].value == pytest.approx(
                huber_estimate(data, 4.0), rel=1e-9, abs=1e-12
            )
            assert catoni.estimators[arm].value == pytest.approx(
                catoni_estimate(data, 1.0), rel=1e-9, abs=1e-12
            )
            assert np.array_equal(seq.estimators[arm].buffer, data)
        assert len(history[0]) > 128 and 64 < len(history[1]) <= 128


class TestArmBufferPrefix:
    @pytest.mark.parametrize("order", ["back", "front", "duplicates", "random"])
    def test_prefix_is_cumsum_of_sorted_values(self, order):
        # 200 inserts take the buffer from 64 entries through two doublings.
        rng = np.random.default_rng(21)
        values = {
            "back": np.arange(200.0) * 0.1,
            "front": -np.arange(200.0) * 0.1,
            "duplicates": rng.integers(0, 4, size=200) * 0.3,
            "random": rng.standard_t(1, size=200) * 1e3,
        }[order]
        buf = _ArmBuffer(1.0)
        for n, x in enumerate(values, start=1):
            buf.update(float(x))
            xs = np.sort(values[:n])
            assert np.array_equal(buf._sorted[:n], xs)
            assert np.array_equal(buf._prefix[: n + 1], np.concatenate(([0.0], np.cumsum(xs))))
        assert buf._sorted.size == 256


# Each policy's bonus as each policy computed it before the index rule was shared;
# the Huber pair's are the confidence module's, checked on their own elsewhere.
REFERENCE_BONUS = {
    "huber_ucb": confidence.huber_bonus,
    "seq_huber_ucb": confidence.seq_huber_bonus,
    "ucb1": lambda s, t, cfg: math.sqrt(2.0 * math.log(t) / s),
    "robust_ucb_catoni": lambda s, t, sigma: sigma * math.sqrt(8.0 * math.log(t) / s),
    "robust_ucb_mom": lambda s, t, sigma: 12.0 * sigma * math.sqrt(math.log(t) / s),
}


@pytest.mark.parametrize("policy", list(REFERENCE_BONUS))
@pytest.mark.parametrize("env_name, eps", [("student", 0.05), ("bernoulli", 0.0)])
def test_index_pass_equals_reference_rule_over_an_episode(policy, env_name, eps):
    # Every step of a whole episode: the pass select_arm uses and the rule
    # written out with the reference bonuses agree bit for bit.  UCB1's and
    # MOM's estimates are recomputed here as the policies computed them from
    # private buffers: a running sum of the rewards, and the median of means
    # of the rewards in arrival order.
    env = make_env(env_name, eps)
    build = resolve(ExperimentConfig(env=env_name, eps_true=eps, policy=policy, horizon=1500), env)[2]
    pol = build.build()
    bonus = REFERENCE_BONUS[policy]
    arm_cfgs = build.arm_params if policy in ("huber_ucb", "seq_huber_ucb") else build.sigmas
    sums, history = np.zeros(env.k), [[] for _ in range(env.k)]
    streams = [np.random.Generator(np.random.Philox([9, 0, i])) for i in range(env.k + 1)]
    finite = 0
    for _ in range(build.horizon):
        t = pol.t + 1
        vals = pol._index_pass(t)
        expected = []
        for arm, cfg in enumerate(arm_cfgs):
            s = pol.counts.item(arm)
            b = bonus(s, t, cfg) if s else INF
            if math.isinf(b):
                expected.append(INF)
                continue
            if policy == "ucb1":
                estimate = sums[arm] / s
            elif policy == "robust_ucb_mom":
                blocks = max(1, min(s, math.ceil(8.0 * math.log(t))))
                estimate = median_of_means(np.array(history[arm]), blocks)
            else:
                estimate = pol.estimators[arm].value
            expected.append(estimate + b)
        assert vals == expected
        finite += all(map(math.isfinite, vals))
        arm = pol.select_arm(streams[env.k])
        reward = env.arms[arm].sample(streams[arm])[0]
        pol.update(arm, reward)
        sums[arm] += reward
        history[arm].append(reward)
    assert finite > 0


def test_spanned_policy_classes_are_unrelated():
    # Per-class timing wrappers around select_arm and update would nest if one
    # of these classes inherited another's methods.
    classes = (HuberUCB, SeqHuberUCB, RobustUCBCatoni, RobustUCBMOM, Exp3)
    for a in classes:
        for b in classes:
            assert a is b or not issubclass(a, b)


class TestExp3:
    def test_uniform_initial_probabilities(self):
        pol = Exp3(4, horizon=100, clip=(-10.0, 10.0))
        assert np.allclose(pol.probabilities(), 0.25)

    def test_zero_rewards_keep_uniform(self):
        pol = Exp3(3, horizon=100, clip=(0.0, 1.0))
        rng = rng_for(12)
        for _ in range(200):
            arm = pol.select_arm(rng)
            pol.update(arm, 0.0)
        assert np.allclose(pol.probabilities(), 1 / 3)

    def test_probabilities_sum_to_one(self):
        pol = Exp3(3, horizon=300, clip=(-10.0, 10.0))
        rng = rng_for(13)
        for _ in range(300):
            arm = pol.select_arm(rng)
            pol.update(arm, float(rng.normal(scale=100)))
        assert abs(pol.probabilities().sum() - 1.0) < 1e-12
        assert np.all(pol.probabilities() > 0)

    def test_learning_rate(self):
        pol = Exp3(3, horizon=5000, clip=(-10.0, 10.0))
        assert pol.eta == pytest.approx(math.sqrt(math.log(3) / (3 * 5000)))

    @pytest.mark.parametrize("k", range(2, 7))
    def test_draw_matches_choice(self, k):
        for seed in range(200):
            pol = Exp3(k, horizon=100, clip=(-10.0, 10.0))
            pol.log_weights[:] = np.random.default_rng(seed).normal(scale=3.0, size=k)
            ours, ref = rng_for(seed), rng_for(seed)
            assert pol.select_arm(ours) == ref.choice(k, p=pol.probabilities())
            assert ours.random() == ref.random()

    def test_nan_probabilities_rejected(self):
        pol = Exp3(3, horizon=100, clip=(-10.0, 10.0))
        pol.log_weights[1] = INF
        with pytest.raises(ValueError, match="nan"):
            pol.select_arm(rng_for(0))

    @pytest.mark.parametrize(
        "log_weights, expected",
        [([1000.0, 1000.0, 999.0], np.exp([0.0, 0.0, -1.0]) / (2.0 + math.exp(-1.0))),
         ([1e308, 1e308, 0.0], [0.5, 0.5, 0.0])],
    )
    def test_probabilities_near_the_float_range(self, log_weights, expected):
        # Shifting by the largest log weight keeps exp in range; adding it would overflow.
        pol = Exp3(3, horizon=100, clip=(-10.0, 10.0))
        pol.log_weights[:] = log_weights
        assert pol.probabilities() == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_rewards_clipped(self):
        pol = Exp3(2, horizon=10, clip=(0.0, 1.0))
        probs = pol.probabilities()
        pol.update(0, 1e9)
        # gain capped at 1, weight moves by at most eta / p
        assert pol.log_weights[0] <= pol.eta / probs[0] + 1e-12

    @pytest.mark.parametrize(
        "clip",
        [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0, 2.0), (0.0,), (-INF, INF), (0.0, INF), (-INF, 0.0),
         (-1e308, 1e308), (math.nan, 1.0)],
    )
    def test_clip_rejected(self, clip):
        # An infinite width turns the rescaled gain into nan a few steps in.
        with pytest.raises(ValueError, match="^clip range must be"):
            Exp3(2, horizon=10, clip=clip)

    def test_clip_as_float_pair(self):
        assert check_clip([0, 1]) == (0.0, 1.0)
        assert all(type(x) is float for x in check_clip([0, 1]))


class TestResolveP:
    def test_explicit_validation(self):
        assert resolve_p("explicit", 0.9, 1.0, 4.0, 0.05) == 0.9
        with pytest.raises(ValueError):
            resolve_p("explicit", 0.2, 1.0, 4.0, 0.05)
        with pytest.raises(ValueError):
            resolve_p("explicit", None, 1.0, 4.0, 0.05)

    def test_exact_from_inlier(self):
        from corrupted_bandits.envs import Gaussian

        p = resolve_p("exact", None, 1.0, 4.0, 0.05, inlier=Gaussian(0.0, 1.0))
        assert p == pytest.approx(math.erf(math.sqrt(2.0)), rel=1e-12)

    def test_exact_rejects_degenerate(self):
        from corrupted_bandits.envs import Bernoulli

        # tiny threshold: no inlier mass within beta/2 of the mean
        with pytest.raises(ValueError):
            resolve_p("exact", None, 0.3, 0.03, 0.05, inlier=Bernoulli(0.1))

    def test_chebyshev_floor(self):
        # informative Chebyshev dominates the floor
        assert resolve_p("chebyshev", None, 1.0, 10.0, 0.0) == pytest.approx(0.96)
        # vacuous Chebyshev falls back to 3/4
        assert resolve_p("chebyshev", None, 1.0, 0.1, 0.05) == 0.75
        # crowded floor moves to the midpoint of (5 eps, 1)
        assert resolve_p("chebyshev", None, 1.0, 0.1, 0.16) == pytest.approx((1 + 0.8) / 2)

    def test_floor_switches_at_five_eps_three_quarters(self):
        # 5 eps = 0.75 exactly: the floor is the midpoint of (5 eps, 1), since
        # 3/4 itself would not exceed 5 eps.
        eps = 0.15
        assert 5.0 * eps == 0.75
        assert resolve_p("chebyshev", None, 1.0, 0.1, eps) == 0.875
        assert resolve_p("chebyshev", None, 1.0, 0.1, math.nextafter(eps, 0.0)) == 0.75

    def test_resolved_p_of_exactly_one_is_accepted(self):
        assert resolve_p("explicit", 1.0, 1.0, 4.0, 0.05) == 1.0
        # Chebyshev rounds to 1 when 4 sigma^2 / beta^2 is below half an ulp of 1.
        assert resolve_p("chebyshev", None, 1e-12, 1.0, 0.05) == 1.0
        with pytest.raises(ValueError):
            resolve_p("explicit", math.nextafter(1.0, 2.0), 1.0, 4.0, 0.05)

    def test_chebyshev_rejects_heavy_corruption(self):
        with pytest.raises(ValueError):
            resolve_p("chebyshev", None, 1.0, 0.1, 0.25)


class TestMakePolicy:
    def test_bias_rules(self):
        env = make_env("pareto", 0.0)
        builds = {}
        for rule in ("zero", "half_second_moment", "second_moment"):
            config = ExperimentConfig(env="pareto", policy="huber_ucb", beta_mult=1.5,
                                      bias_rule=rule)
            builds[rule] = resolve(config, env)[2].arm_params
        zero, half, full = builds["zero"], builds["half_second_moment"], builds["second_moment"]
        sigma = env.sigmas[0]
        assert zero[0].bias == 0.0
        assert half[0].bias == pytest.approx(sigma / 1.5)
        assert full[0].bias == pytest.approx(2 * sigma / 1.5)

    def test_unknown_policy(self):
        env = make_env("bernoulli", 0.0)
        with pytest.raises(ValueError):
            resolve(ExperimentConfig(policy="thompson", horizon=10), env)

    def test_build_roundtrip(self):
        env = make_env("student", 0.05)
        config = ExperimentConfig(env="student", eps_true=0.05, policy="huber_ucb",
                                  horizon=100, eps_assumed=0.05, beta_mult=1.0)
        build = resolve(config, env)[2]
        pol = build.build()
        assert isinstance(pol, HuberUCB)
        assert pol.k == 3
        assert pol.params[0].beta == pytest.approx(math.sqrt(3.0))

    def test_exp3_clip_passthrough(self):
        env = make_env("bernoulli", 0.0)
        config = ExperimentConfig(env="bernoulli", policy="exp3", horizon=100, exp3_clip=(0.0, 1.0))
        build = resolve(config, env)[2]
        assert build.build().clip == (0.0, 1.0)


def reference_build_huber_params(
    env,
    eps_assumed,
    beta_mult=4.0,
    bias_rule="zero",
    p_mode="chebyshev",
    p_value=None,
):
    """``build_huber_params`` as it was when it took each parameter with a default of its own."""
    if bias_rule not in BIAS_RULES:
        raise ValueError(f"bias_rule must be one of {tuple(BIAS_RULES)}")
    params = []
    for arm, raw_sigma in zip(env.arms, env.sigmas):
        sigma = max(float(raw_sigma), SIGMA_FLOOR)
        beta = beta_mult * sigma
        p = resolve_p(p_mode, p_value, sigma, beta, eps_assumed, inlier=arm.inlier)
        if bias_rule == "zero":
            bias = 0.0
        elif bias_rule == "second_moment":
            bias = 2.0 * sigma * sigma / beta
        else:
            bias = sigma * sigma / beta
        params.append(HuberParams(beta=beta, sigma=sigma, eps=eps_assumed, p=p, bias=bias))
    return params


def reference_make_policy(
    name,
    env,
    horizon,
    eps_assumed=0.0,
    beta_mult=4.0,
    bias_rule="zero",
    p_mode="chebyshev",
    p_value=None,
    exp3_clip=(-10.0, 10.0),
):
    """``make_policy`` as it was when it relayed nine parameters, each with a default of its own."""
    arm_params = ()
    if name in ("huber_ucb", "seq_huber_ucb"):
        arm_params = tuple(
            reference_build_huber_params(
                env,
                eps_assumed,
                beta_mult=beta_mult,
                bias_rule=bias_rule,
                p_mode=p_mode,
                p_value=p_value,
            )
        )
    return PolicyBuild(
        name=name,
        horizon=horizon,
        arm_params=arm_params,
        sigmas=tuple(max(float(s), SIGMA_FLOOR) for s in env.sigmas),
        exp3_clip=exp3_clip,
    )


def _build_or_error(build, *args, **kwargs):
    """The recipe, or the type and message of the error that rejected it (both paths must agree)."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("env_name", sorted(PRESETS))
def test_recipe_matches_the_relayed_parameters(env_name, policy):
    # PolicyBuild equality compares every HuberParams field, the derived ones too.
    cases = 0
    for eps in (0.0, 0.03, 0.05):
        env = make_env(env_name, eps)
        for bias_rule in BIAS_RULES:
            for p_mode in ("chebyshev", "exact"):
                for beta_mult in (None, 2.5):
                    config = ExperimentConfig(env=env_name, eps_true=eps, policy=policy,
                                              horizon=300, beta_mult=beta_mult,
                                              bias_rule=bias_rule, p_mode=p_mode)
                    cfg = config.resolved()
                    got = _build_or_error(lambda: resolve(config, env)[2])
                    want = _build_or_error(
                        reference_make_policy, cfg.policy, env, cfg.horizon, cfg.eps_assumed,
                        cfg.beta_mult, cfg.bias_rule, cfg.p_mode, cfg.p_value, cfg.exp3_clip,
                    )
                    assert got == want, (eps, bias_rule, p_mode, beta_mult)
                    cases += isinstance(got, PolicyBuild)
    assert cases > 0
