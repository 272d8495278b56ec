import math

import numpy as np
import pytest

from corrupted_bandits.confidence import HuberParams, corruption_proxy
from corrupted_bandits.theory import (
    GapProfile,
    alpha_for_gap_ratio,
    corrupted_bernoulli_kl,
    corrupted_bernoulli_kl_bounds,
    corrupted_bernoulli_pair,
    discrete_kl,
    max_pulls_huber_ucb,
    max_pulls_huber_ucb_simplified,
    max_pulls_seq_huber_ucb,
    min_pulls_bernoulli,
    min_pulls_student,
)

INF = math.inf


def pair_dists(pair):
    p = {0: 1.0 - pair.q0, 1: pair.q0}
    q = {0: 1.0 - pair.q1, 1: pair.q1}
    return p, q


class TestCorruptedPair:
    def test_uncorrupted_identity(self):
        pair = corrupted_bernoulli_pair(0.25, 0.0)
        assert pair.q0 == pytest.approx(0.25)
        assert pair.q1 == pytest.approx(0.75)

    def test_mixture_arithmetic(self):
        pair = corrupted_bernoulli_pair(0.25, 0.1)
        # bad arm keeps (1-eps)(1-alpha) = 0.675 mass at 0
        assert 1.0 - pair.q0 == pytest.approx(0.675)
        assert pair.q1 == pytest.approx(0.675)

    def test_exact_corrupted_gap(self):
        # The realized mean difference is gap*(1-eps) - eps, dominated by the
        # conventional corrupted gap gap*(1-eps) - 2*eps*sigma (2*sigma <= 1).
        for alpha in (0.05, 0.25, 0.4):
            for eps in (0.0, 0.05, 0.2):
                pair = corrupted_bernoulli_pair(alpha, eps)
                gap, sigma = 1 - 2 * alpha, math.sqrt(alpha * (1 - alpha))
                assert pair.q1 - pair.q0 == pytest.approx(gap * (1 - eps) - eps, abs=1e-12)
                assert pair.q1 - pair.q0 <= gap * (1 - eps) - 2 * eps * sigma + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            corrupted_bernoulli_pair(0.5, 0.1)
        with pytest.raises(ValueError):
            corrupted_bernoulli_pair(0.25, 0.5)


class TestExactKL:
    def test_matches_numeric_oracle_on_grid(self):
        for alpha in np.arange(0.05, 0.46, 0.05):
            for eps in (0.0, 0.05, 0.1, 0.15, 0.2):
                exact = corrupted_bernoulli_kl(alpha, eps)
                p, q = pair_dists(corrupted_bernoulli_pair(alpha, eps))
                assert abs(exact - discrete_kl(p, q)) <= 1e-12

    def test_zero_when_laws_coincide(self):
        # prefactor 1 - 2 eps - 2 alpha + 2 eps alpha = 0 at alpha = (1-2e)/(2(1-e))
        eps = 0.1
        alpha = (1 - 2 * eps) / (2 * (1 - eps))
        assert corrupted_bernoulli_kl(alpha, eps) == pytest.approx(0.0, abs=1e-15)

    def test_uncorrupted_is_textbook_bernoulli_kl(self):
        alpha = 0.25
        exact = corrupted_bernoulli_kl(alpha, 0.0)
        p, q = alpha, 1 - alpha
        textbook = p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))
        assert exact == pytest.approx(textbook, rel=1e-12)


class TestKLBounds:
    def test_low_regime_boundary_closed(self):
        # At eps = 0.375 the boundary 2 sigma eps / sqrt(1 - 2 eps) is exactly 1.5 sigma.
        sigma, eps = 1.0, 0.375
        _, high, low = corrupted_bernoulli_kl_bounds(1.5, sigma, eps)
        assert low is True
        assert high is None
        _, high, low = corrupted_bernoulli_kl_bounds(math.nextafter(1.5, 2.0), sigma, eps)
        assert low is False
        assert high > 0.0

    def test_window_and_flags(self):
        sigma, eps = 1.0, 0.2
        uniform, high, low = corrupted_bernoulli_kl_bounds(1.0, sigma, eps)
        assert not low and high is not None
        assert uniform == pytest.approx(0.6 * math.log(1 + 0.6 / 0.2), rel=1e-12)
        _, high2, _ = corrupted_bernoulli_kl_bounds(2.5, sigma, eps)
        assert high2 is None

    def test_eps_to_zero_limit_of_high_regime(self):
        sigma, gap = 1.0, 1.0
        limit = (gap / (2 * sigma)) * math.log(1 + 2 * gap / (2 * sigma - gap))
        _, high, _ = corrupted_bernoulli_kl_bounds(gap, sigma, 1e-9)
        assert high == pytest.approx(limit, rel=1e-6)

    def test_figure_grid_dominance(self):
        # exact KL stays below every applicable bound across the comparison grid
        sigma, eps = 1.0, 0.2
        for gap in np.logspace(-2, 0.6, 50):
            uniform, high, low = corrupted_bernoulli_kl_bounds(gap, sigma, eps)
            alpha = alpha_for_gap_ratio(gap, sigma)
            exact = corrupted_bernoulli_kl(alpha, eps)
            assert exact <= uniform + 1e-12
            if high is not None:
                assert exact <= high + 1e-12
            if low:
                # indistinguishable regime: some smaller corruption zeroes the KL
                assert gap <= 2 * sigma * eps / math.sqrt(1 - 2 * eps) + 1e-12

    def test_alpha_for_gap_ratio_roundtrip(self):
        for ratio in (0.01, 0.5, 1.0, 1.9, 10.0):
            alpha = alpha_for_gap_ratio(ratio, 1.0)
            assert (1 - 2 * alpha) / math.sqrt(alpha * (1 - alpha)) == pytest.approx(ratio, rel=1e-9)


class TestDiscreteKL:
    def test_identical(self):
        d = {0: 0.4, 1: 0.6}
        assert discrete_kl(d, d) == 0.0

    def test_hand_formula(self):
        p = {0: 0.5, 1: 0.5}
        q = {0: 0.75, 1: 0.25}
        expected = 0.5 * math.log(2) + 0.5 * math.log(2.0 / 3.0)
        assert discrete_kl(p, q) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(0.05, 0.95, size=2)
            assert discrete_kl({0: a, 1: 1 - a}, {0: b, 1: 1 - b}) >= 0.0

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            discrete_kl({0: 0.5, 1: 0.5}, {0: 1.0})
        with pytest.raises(ValueError):
            discrete_kl({0: 0.7, 1: 0.4}, {0: 0.7, 1: 0.4 - 0.1})


class TestLowerBounds:
    def test_student_equal_gap_and_scale(self):
        assert min_pulls_student(1.0, 1.0) == pytest.approx(max(1 / 51, 1 / 22))
        assert min_pulls_student(1.0, 1.0) == pytest.approx(1 / 22)

    def test_student_depends_on_the_ratio_only(self):
        for gap, sigma in ((0.01, 1.0), (1.0, 1.0), (100.0, 1.0)):
            for c in (1e-3, 0.5, 8.0, 1e4):
                assert min_pulls_student(c * gap, c * sigma) == pytest.approx(
                    min_pulls_student(gap, sigma), rel=1e-12)

    def test_student_log_branch_absent_below_its_pole(self):
        # 4 ln(gap/sigma) + 22 < 0 for gap/sigma < e^-5.5: only the quadratic term is left.
        gap = math.exp(-6.0)
        assert min_pulls_student(gap, 1.0) == 1.0 / (51.0 * gap * gap)

    def test_student_small_gap_branch(self):
        value = min_pulls_student(0.01, 1.0)
        assert value == pytest.approx(1.0 / (51 * 1e-4), rel=1e-9)

    def test_student_large_gap_decay(self):
        v1 = min_pulls_student(10.0, 1.0)
        v2 = min_pulls_student(100.0, 1.0)
        assert v1 > v2 > 0
        assert v2 == pytest.approx(1 / (4 * math.log(100) + 22), rel=1e-12)

    def test_bernoulli_large_gap_constant(self):
        eps = 0.1
        a = min_pulls_bernoulli(3.0, 1.0, eps)
        b = min_pulls_bernoulli(30.0, 5.0, eps)
        assert a == b == pytest.approx(1 / ((1 - 2 * eps) * math.log(9.0)), rel=1e-12)

    def test_bernoulli_boundary_uses_large_gap_branch(self):
        eps = 0.1
        assert min_pulls_bernoulli(2.0, 1.0, eps) == min_pulls_bernoulli(5.0, 1.0, eps)

    def test_bernoulli_eps_limit(self):
        gap, sigma = 1.0, 1.0
        expected = 2 * sigma / (gap * math.log(1 + 2 * gap / (2 * sigma - gap)))
        assert min_pulls_bernoulli(gap, sigma, 1e-9) == pytest.approx(expected, rel=1e-6)

    def test_bernoulli_monotone_in_eps(self):
        gap, sigma = 1.0, 1.0
        previous = 0.0
        for eps in (0.01, 0.05, 0.1, 0.15, 0.2):
            value = min_pulls_bernoulli(gap, sigma, eps)
            assert value > previous
            previous = value

    def test_bernoulli_low_regime_sentinel(self):
        assert min_pulls_bernoulli(0.05, 1.0, 0.2) == INF


class TestGapProfile:
    def test_shifted_gap_decreasing_in_eps_and_bias(self):
        base = GapProfile(1.0, 1.0, 0.05).shifted_gap(0.9, 4.0)
        assert GapProfile(1.0, 1.0, 0.1).shifted_gap(0.9, 4.0) < base
        assert GapProfile(1.0, 1.0, 0.05).shifted_gap(0.9, 4.0, bias=0.1) < base


class TestUpperBounds:
    def test_n_equals_one(self):
        cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.75)
        gap = GapProfile(8.0, 1.0, 0.0)
        assert max_pulls_huber_ucb(1, gap, cfg) == pytest.approx(10.0)
        assert max_pulls_seq_huber_ucb(1, GapProfile(30.0, 1.0, 0.0), cfg) == pytest.approx(28.0)

    def test_branch_threshold_is_small_gap(self):
        # eps=0: threshold = 24 sigma^2 / beta = 6; delta = 8, p = 0.75 gives
        # shifted gap exactly 6.0 -> the <= branch applies.
        cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.75)
        gap = GapProfile(8.0, 1.0, 0.0)
        n = 100
        log_n = math.log(n)
        small = 50.0 / (9 * 36.0) * 2.0
        second = 4.0 / 0.75**2 * (1 + 2 * math.sqrt(2) * (9 / (14 * math.sqrt(2)))) ** 2
        expected = log_n * max(small, second) + 10 * (log_n + 1)
        assert max_pulls_huber_ucb(n, gap, cfg) == pytest.approx(expected, rel=1e-12)

    def test_large_gap_branch_oracle(self):
        cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.75)
        gap = GapProfile(20.0, 1.0, 0.0)  # shifted = 15 > threshold 6
        n = 1000
        log_n = math.log(n)
        lead = 32 * 4.0 / (3 * 15.0)
        second = 4.0 / 0.75**2 * (1 + 2 * math.sqrt(2) * (9 / (14 * math.sqrt(2)))) ** 2
        expected = log_n * max(lead, second) + 10 * (log_n + 1)
        assert max_pulls_huber_ucb(n, gap, cfg) == pytest.approx(expected, rel=1e-12)

    def test_seq_branch_threshold(self):
        cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.75)
        gap = GapProfile(24.0, 1.0, 0.0)  # shifted = 18 == threshold -> small branch
        n = 50
        log_n = math.log(n)
        expected = 80 * log_n * max(1.0 / 324.0, 3.0) + 28 * (log_n + 1)
        assert max_pulls_seq_huber_ucb(n, gap, cfg) == pytest.approx(expected, rel=1e-12)

    def test_inapplicable_below_zero_shifted_gap(self):
        cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.1, p=0.75)
        gap = GapProfile(0.1, 1.0, 0.1)
        for bound in (max_pulls_huber_ucb, max_pulls_huber_ucb_simplified,
                      max_pulls_seq_huber_ucb):
            assert bound(100, gap, cfg) == INF
            assert np.array_equal(bound(np.arange(1, 4), gap, cfg), np.full(3, INF))

    def test_step_array_matches_scalar_steps(self):
        # one evaluation over an array of steps equals the per-step values bit for bit
        steps = np.arange(1, 3001)
        for eps, delta in ((0.0, 0.5), (0.0, 30.0), (0.02, 2.0), (0.02, 100.0)):
            cfg = HuberParams(beta=4.0, sigma=1.0, eps=eps, p=0.9)
            gap = GapProfile(delta, 1.0, eps)
            for bound in (max_pulls_huber_ucb, max_pulls_huber_ucb_simplified,
                          max_pulls_seq_huber_ucb):
                per_step = [bound(int(t), gap, cfg) for t in steps]
                assert np.array_equal(bound(steps, gap, cfg), per_step)

    @pytest.mark.parametrize("n", [0, np.arange(0, 3)], ids=["zero", "array"])
    def test_rejects_steps_below_one(self, n):
        cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.75)
        for bound in (max_pulls_huber_ucb, max_pulls_huber_ucb_simplified,
                      max_pulls_seq_huber_ucb):
            with pytest.raises(ValueError, match="n must be >= 1"):
                bound(n, GapProfile(8.0, 1.0, 0.0), cfg)

    def test_nondecreasing_in_n(self):
        cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.02, p=0.9)
        gap = GapProfile(2.0, 1.0, 0.02)
        values = [max_pulls_huber_ucb(n, gap, cfg) for n in (10, 100, 1000, 10000)]
        assert values == sorted(values)

    def test_within_branch_monotone_in_gap(self):
        cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.75)
        # large-gap branch, first entry dominant only for very large gaps;
        # compare points where the gap-dependent entry is active
        v_small = max_pulls_huber_ucb(1000, GapProfile(0.4, 1.0, 0.0), cfg)
        v_large = max_pulls_huber_ucb(1000, GapProfile(0.6, 1.0, 0.0), cfg)
        assert v_large <= v_small

    def test_simplified_dominates_sharp_on_grid(self):
        # simplified-bound setting: beta = 4 sigma, symmetric inliers, proxy <= 0.54
        n_values = (10, 1000, 10**6)
        count = 0
        for eps in (0.0, 0.01, 0.02, 0.03, 0.04):
            for p in (0.75, 0.85, 0.95, 1.0):
                for sigma in (0.5, 1.0, 2.0):
                    cfg = HuberParams(beta=4 * sigma, sigma=sigma, eps=eps, p=p)
                    for mult in (0.5, 2.0, 10.0, 40.0, 200.0):
                        delta = mult * sigma
                        gap = GapProfile(delta, sigma, eps)
                        if delta * (p - eps) - 32 * sigma * eps <= 0:
                            continue
                        for n in n_values:
                            sharp = max_pulls_huber_ucb(n, gap, cfg)
                            loose = max_pulls_huber_ucb_simplified(n, gap, cfg)
                            assert sharp <= loose * (1 + 1e-12)
                            count += 1
        assert count >= 500


class TestProxyConstantNote:
    def test_definitional_proxy_vs_simplified_constant(self):
        # The simplified bound pins 4/(5 sqrt(ln 9)) ~ 0.54; the definition
        # at eps = 0.1 gives ~0.6034.  Both magnitudes are verified here.
        assert 4 / (5 * math.sqrt(math.log(9))) == pytest.approx(0.5397, abs=1e-4)
        assert corruption_proxy(0.1) == pytest.approx(0.6034, abs=1e-4)
