import math

import numpy as np
import pytest

from corrupted_bandits.confidence import (
    HuberParams,
    chebyshev_p,
    concentration_radius,
    corruption_proxy,
    exploration_threshold,
    huber_bias_bound,
    huber_bonus,
    min_valid_delta,
    seq_concentration_radius,
    seq_huber_bonus,
)
from corrupted_bandits.estimators import floor_pow2

INF = math.inf


def radius_oracle(n, delta, beta, sigma, eps, p):
    """Independent re-implementation of the deviation radius."""
    level = math.log(1.0 / delta)
    proxy = 0.0 if eps == 0 else math.sqrt((1 - 2 * eps) / math.log((1 - eps) / eps))
    denom = p - math.sqrt(level / (2 * n)) - eps
    if denom <= 0:
        return INF
    num = (
        sigma * math.sqrt(2 * level / n)
        + beta * level / (3 * n)
        + 2 * beta * proxy * math.sqrt(level / n)
        + 2 * beta * eps
    )
    return num / denom


def cfg(beta=4.0, sigma=1.0, eps=0.05, p=0.75, bias=0.0):
    return HuberParams(beta=beta, sigma=sigma, eps=eps, p=p, bias=bias)


class TestCorruptionProxy:
    def test_zero_at_no_corruption(self):
        assert corruption_proxy(0.0) == 0.0

    def test_formula_values(self):
        assert corruption_proxy(0.1) == pytest.approx(math.sqrt(0.8 / math.log(9.0)))
        assert corruption_proxy(0.1) == pytest.approx(0.6034, abs=1e-4)
        assert corruption_proxy(0.25) == pytest.approx(math.sqrt(0.5 / math.log(3.0)))
        assert corruption_proxy(0.25) == pytest.approx(0.6746, abs=1e-4)

    def test_domain(self):
        for bad in (-0.01, 0.5, 0.7):
            with pytest.raises(ValueError):
                corruption_proxy(bad)


class TestChebyshevP:
    def test_canonical_value(self):
        assert chebyshev_p(1.0, 4.0) == 0.75

    def test_vacuous_at_two_sigma(self):
        assert chebyshev_p(1.0, 2.0) == 0.0
        assert chebyshev_p(1.0, 1.0) == 0.0

    def test_limit_one(self):
        assert chebyshev_p(1.0, 1e9) == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [1e-162, 1e-200, 5e-324])
    def test_vacuous_where_beta_squared_underflows(self, beta):
        # beta * beta is 0.0 here; the bound's limit as beta -> 0 is 0
        assert chebyshev_p(1.0, beta) == 0.0


class TestHuberParams:
    def test_rejects_p_below_corruption_floor(self):
        with pytest.raises(ValueError):
            HuberParams(beta=4.0, sigma=1.0, eps=0.1, p=0.5)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            HuberParams(beta=4.0, sigma=1.0, eps=0.5, p=0.9)

    def test_small_beta_flags_not_raises(self):
        c = HuberParams(beta=0.1, sigma=1.0, eps=0.0, p=0.75)
        assert c.beta == 0.1
        assert c.beta_valid is False
        assert HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.75).beta_valid is True

    def test_p_of_one_accepted_and_above_rejected(self):
        assert HuberParams(beta=4.0, sigma=1.0, p=1.0).p == 1.0
        with pytest.raises(ValueError):
            HuberParams(beta=4.0, sigma=1.0, p=math.nextafter(1.0, 2.0))

    def test_rejects_p_where_the_squared_gap_underflows(self):
        # At eps = 0 the gap is p: 128 p^2 is 0 up to this p and positive just above it.
        p_zero = 1.3892242184281734e-163
        p_above = math.nextafter(p_zero, 1.0)
        assert 128.0 * p_zero * p_zero == 0.0 < 128.0 * p_above * p_above
        with pytest.raises(ValueError, match="128"):
            HuberParams(beta=4.0, sigma=1.0, p=p_zero)
        assert HuberParams(beta=4.0, sigma=1.0, p=p_above).explore_denom > 0.0

    def test_proxy_derived(self):
        c = cfg(eps=0.1, p=0.75)
        assert c.eps_proxy == corruption_proxy(0.1)


class TestRadius:
    def test_duplicate_formula_oracle(self):
        c = cfg()
        for n in (10, 100, 1000, 10**6):
            for delta in (0.5, 0.01, 1e-6):
                expected = radius_oracle(n, delta, 4.0, 1.0, 0.05, 0.75)
                got = concentration_radius(n, delta, c)
                if math.isinf(expected) or math.isinf(got):
                    # validity gate may fire before the denominator does
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expected, rel=1e-12)

    def test_uncorrupted_leading_term(self):
        c = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=1.0)
        n = 10**8
        delta = 0.01
        leading = math.sqrt(2 * math.log(1 / delta) / n)
        assert concentration_radius(n, delta, c) / leading == pytest.approx(1.0, abs=1e-3)

    def test_invalid_delta_gives_inf(self):
        c = cfg()
        assert concentration_radius(5, 1e-12, c) == INF

    def test_nonincreasing_in_n(self):
        c = cfg()
        values = [concentration_radius(n, 0.01, c) for n in (50, 100, 500, 5000, 50000)]
        finite = [v for v in values if not math.isinf(v)]
        assert finite == sorted(finite, reverse=True)

    def test_nondecreasing_in_eps(self):
        previous = 0.0
        for eps in (0.0, 0.01, 0.05, 0.1):
            c = HuberParams(beta=4.0, sigma=1.0, eps=eps, p=0.9)
            value = concentration_radius(2000, 0.01, c)
            assert value >= previous
            previous = value

    def test_bernstein_shape_at_zero_corruption(self):
        c = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.9)
        n, delta = 500, 0.05
        level = math.log(1 / delta)
        expected = (math.sqrt(2 * level / n) + 4.0 * level / (3 * n)) / (
            0.9 - math.sqrt(level / (2 * n))
        )
        assert concentration_radius(n, delta, c) == pytest.approx(expected, rel=1e-12)

    def test_delta_one_boundary(self):
        c = cfg()
        assert concentration_radius(100, 1.0, c) == pytest.approx(
            2 * 4.0 * 0.05 / (0.75 - 0.05)
        )


class TestMinValidDelta:
    def test_monotone_decreasing_in_n(self):
        c = cfg()
        values = [min_valid_delta(n, c) for n in (1, 10, 100, 1000)]
        assert values == sorted(values, reverse=True)

    def test_duplicate_oracle(self):
        eps, p = 0.05, 0.75
        proxy = corruption_proxy(eps)
        expected = math.exp(
            -100 * 128 * (p - 5 * eps) ** 2 / (49 * (1 + 2 * math.sqrt(2) * proxy) ** 2)
        )
        assert min_valid_delta(100, cfg()) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_boundary(self):
        c = HuberParams(beta=4.0, sigma=1.0, eps=0.1, p=0.5 + 1e-9)
        assert min_valid_delta(1000, c) == pytest.approx(1.0)


class TestExplorationThreshold:
    def test_zero_at_first_step(self):
        assert exploration_threshold(1, cfg()) == 0.0

    def test_proxy_clamp_branch(self):
        # eps small enough that the proxy falls below 9 / (14 sqrt(2))
        c = HuberParams(beta=4.0, sigma=1.0, eps=0.001, p=0.9)
        assert c.eps_proxy < 9 / (14 * math.sqrt(2))
        k = 1 + 2 * math.sqrt(2) * (9 / (14 * math.sqrt(2)))
        expected = math.log(100) * 98 / (128 * (0.9 - 0.005) ** 2) * k * k
        assert exploration_threshold(100, c) == pytest.approx(expected, rel=1e-12)

    def test_duplicate_oracle(self):
        c = cfg()
        proxy = corruption_proxy(0.05)
        k = 1 + 2 * math.sqrt(2) * max(proxy, 9 / (14 * math.sqrt(2)))
        expected = math.log(1000) * 98 / (128 * 0.25) * k * k
        assert exploration_threshold(1000, c) == pytest.approx(expected, rel=1e-12)


class TestBiasBound:
    def test_variance_case(self):
        assert huber_bias_bound(1.0, 4.0) == 0.5

    def test_small_beta_evaluated(self):
        # beta^2 < 9 sigma^2 lies outside the bound's region; the value is still returned
        assert huber_bias_bound(1.0, 1.0) == 2.0


class TestHuberBonus:
    def test_unpulled_arm_infinite(self):
        assert huber_bonus(0, 10, cfg()) == INF

    def test_below_threshold_infinite(self):
        c = cfg()
        t = 1000
        s = int(exploration_threshold(t, c)) - 1
        assert s >= 1
        assert huber_bonus(s, t, c) == INF

    def test_composition(self):
        c = cfg(bias=0.25)
        s, t = 500, 1000
        assert s >= exploration_threshold(t, c)
        expected = concentration_radius(s, 1e-6, c) + 0.25
        assert huber_bonus(s, t, c) == pytest.approx(expected, rel=1e-12)

    def test_nonincreasing_in_pulls(self):
        c = cfg()
        t = 5000
        values = [huber_bonus(s, t, c) for s in (200, 400, 800, 1600, 3200)]
        finite = [v for v in values if not math.isinf(v)]
        assert finite == sorted(finite, reverse=True)


class TestSeqBonus:
    def test_anchor_gate(self):
        c = cfg()
        t = 1000
        threshold = exploration_threshold(t, c)
        s = int(threshold) + 5
        if floor_pow2(s) < threshold:
            assert seq_huber_bonus(s, t, c) == INF

    def test_power_of_two_collapse(self):
        c = cfg(bias=0.1)
        t = 4000
        s = 512
        assert s == floor_pow2(s) and s >= exploration_threshold(t, c)
        level = math.log(t * t)
        inner = 0.75 - math.sqrt(level / (2 * s)) - 0.05
        expected = concentration_radius(s, 1.0 / t**2, c) / inner + 0.1
        assert seq_huber_bonus(s, t, c) == pytest.approx(expected, rel=1e-12)

    def test_dominates_batch_bonus(self):
        c = cfg()
        for t in (500, 2000, 10_000):
            for s in (128, 300, 512, 1024, 2048):
                b = huber_bonus(s, t, c)
                sb = seq_huber_bonus(s, t, c)
                if not math.isinf(sb):
                    assert sb >= b

    def test_unpulled_infinite(self):
        assert seq_huber_bonus(0, 100, cfg()) == INF


class TestSeqRadius:
    def test_matches_manual_composition(self):
        c = cfg(p=0.9)
        n, delta = 1000, 0.01
        level = math.log(1 / delta)
        inner = 0.9 - math.sqrt(level / (2 * n)) - 0.05
        expected = concentration_radius(n, delta, c) + (1 / inner - 1) * concentration_radius(
            floor_pow2(n), delta, c
        )
        assert seq_concentration_radius(n, delta, c) == pytest.approx(expected, rel=1e-12)

    def test_validity_at_anchor(self):
        c = cfg()
        # delta admissible at n but not at floor_pow2(n) forces inf
        n = 1025
        anchor = floor_pow2(n)
        delta = 0.5 * (min_valid_delta(anchor, c) + min_valid_delta(n, c))
        if min_valid_delta(n, c) < delta < min_valid_delta(anchor, c):
            assert seq_concentration_radius(n, delta, c) == INF

    @pytest.mark.parametrize("n, delta", [(0, 0.1), (10, 0.0), (10, 1.5)])
    def test_invalid_arguments_raise(self, n, delta):
        with pytest.raises(ValueError):
            seq_concentration_radius(n, delta, cfg())

    def test_nonpositive_denominator_is_inf(self):
        c = HuberParams(beta=4.0, sigma=1.0, eps=0.0, p=0.75)
        # delta is admissible (floor about 0.23) but p - sqrt(ln(1/delta) / 2) <= 0
        assert min_valid_delta(1, c) < 0.3
        assert seq_concentration_radius(1, 0.3, c) == INF


class TestCoverageSmoke:
    """Small-scale deviation coverage; the full-size version is in acceptance."""

    def test_gaussian_with_point_mass_outliers(self):
        rng = np.random.default_rng(101)
        eps, n, delta = 0.05, 400, 0.05
        p_exact = math.erf(2.0 / math.sqrt(2.0))
        c = HuberParams(beta=4.0, sigma=1.0, eps=eps, p=p_exact)
        radius = concentration_radius(n, delta, c)
        assert not math.isinf(radius)
        from corrupted_bandits.estimators import huber_estimate

        failures = 0
        reps = 300
        for _ in range(reps):
            x = rng.normal(size=n)
            mask = rng.random(n) < eps
            x[mask] = 50.0
            if abs(huber_estimate(x, 4.0)) > radius:
                failures += 1
        assert failures / reps <= 5 * delta
