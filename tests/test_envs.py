import math

import numpy as np
import pytest
import scipy.stats

from corrupted_bandits.envs import (
    BanditEnv,
    Bernoulli,
    CorruptedArm,
    Dirac,
    Gaussian,
    Pareto,
    StudentT,
    Weibull,
    make_env,
)


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox([seed]))


class TestMoments:
    def test_bernoulli(self):
        d = Bernoulli(0.3)
        assert d.mean() == 0.3
        assert d.variance() == pytest.approx(0.21)

    def test_gaussian(self):
        d = Gaussian(-2.0, 3.0)
        assert d.mean() == -2.0
        assert d.variance() == 9.0

    def test_student_df3(self):
        d = StudentT(3.0, 0.5)
        assert d.mean() == 0.5
        assert d.variance() == pytest.approx(3.0)

    def test_student_undefined_variance(self):
        with pytest.raises(ValueError):
            StudentT(2.0).variance()

    def test_pareto_reference_moments(self):
        assert Pareto(3.0, 0.1).mean() == pytest.approx(0.15)
        assert Pareto(3.0, 0.2).mean() == pytest.approx(0.30)
        assert Pareto(2.1, 0.3).mean() == pytest.approx(0.57, abs=0.005)
        assert math.sqrt(Pareto(3.0, 0.1).variance()) == pytest.approx(0.09, abs=0.005)
        assert math.sqrt(Pareto(3.0, 0.2).variance()) == pytest.approx(0.17, abs=0.005)
        assert math.sqrt(Pareto(2.1, 0.3).variance()) == pytest.approx(1.25, abs=0.005)

    def test_pareto_undefined_moments(self):
        with pytest.raises(ValueError):
            Pareto(0.9, 1.0).mean()
        with pytest.raises(ValueError):
            Pareto(1.5, 1.0).variance()

    def test_weibull_against_scipy(self):
        for shape, scale in ((2.0, 0.5), (2.0, 0.7), (0.75, 0.8)):
            ref = scipy.stats.weibull_min(shape, scale=scale)
            d = Weibull(shape, scale)
            assert d.mean() == pytest.approx(ref.mean(), rel=1e-12)
            assert d.variance() == pytest.approx(ref.var(), rel=1e-12)

    def test_pareto_against_scipy(self):
        ref = scipy.stats.pareto(2.1, scale=0.3)
        d = Pareto(2.1, 0.3)
        assert d.mean() == pytest.approx(ref.mean(), rel=1e-12)
        assert d.variance() == pytest.approx(ref.var(), rel=1e-12)

    def test_dirac(self):
        d = Dirac(4.2)
        assert d.mean() == 4.2
        assert d.variance() == 0.0


class TestIntervalProb:
    def test_gaussian_vs_scipy(self):
        d = Gaussian(1.0, 2.0)
        ref = scipy.stats.norm(1.0, 2.0)
        for lo, hi in ((-1.0, 3.0), (0.0, 0.5), (-10.0, 10.0)):
            assert d.interval_prob(lo, hi) == pytest.approx(ref.cdf(hi) - ref.cdf(lo), abs=1e-12)

    def test_student_vs_scipy(self):
        d = StudentT(3.0, 0.5)
        ref = scipy.stats.t(3.0, loc=0.5)
        for lo, hi in ((-1.0, 2.0), (0.4, 0.6)):
            assert d.interval_prob(lo, hi) == pytest.approx(ref.cdf(hi) - ref.cdf(lo), abs=1e-10)

    def test_bernoulli_point_masses(self):
        d = Bernoulli(0.3)
        assert d.interval_prob(-0.5, 0.5) == pytest.approx(0.7)
        assert d.interval_prob(0.5, 1.5) == pytest.approx(0.3)
        assert d.interval_prob(-1.0, 2.0) == 1.0
        assert d.interval_prob(0.1, 0.9) == 0.0

    def test_pareto_weibull_cdfs(self):
        p = Pareto(3.0, 0.1)
        ref = scipy.stats.pareto(3.0, scale=0.1)
        assert p.interval_prob(0.1, 0.3) == pytest.approx(ref.cdf(0.3) - ref.cdf(0.1), abs=1e-12)
        w = Weibull(2.0, 0.5)
        refw = scipy.stats.weibull_min(2.0, scale=0.5)
        assert w.interval_prob(0.2, 0.9) == pytest.approx(refw.cdf(0.9) - refw.cdf(0.2), abs=1e-12)

    def test_dirac(self):
        d = Dirac(1.0)
        assert d.interval_prob(0.5, 1.5) == 1.0
        assert d.interval_prob(1.5, 2.0) == 0.0


class TestSampling:
    def test_sample_means_match_analytic(self):
        # Robust check: median of batch means tolerates Pareto/Student tails.
        n_batches, batch = 100, 10_000
        for preset in ("bernoulli", "student", "pareto", "weibull"):
            env = make_env(preset, 0.0)
            for i, arm in enumerate(env.arms):
                rng = rng_for(100 + i)
                draws = np.array(
                    [arm.inlier.sample(rng) for _ in range(n_batches * batch)]
                )
                batch_means = draws.reshape(n_batches, batch).mean(axis=1)
                se = math.sqrt(arm.inlier.variance() / (n_batches * batch))
                # the median of batch means concentrates like the mean, up to
                # a small constant; 4 joint standard errors with slack
                assert abs(np.median(batch_means) - arm.inlier.mean()) < 8 * se + 1e-3

    def test_pareto_sampler_against_scipy_quantiles(self):
        rng = rng_for(7)
        d = Pareto(3.0, 0.1)
        draws = np.array([d.sample(rng) for _ in range(50_000)])
        ref = scipy.stats.pareto(3.0, scale=0.1)
        for q in (0.1, 0.5, 0.9):
            assert np.quantile(draws, q) == pytest.approx(ref.ppf(q), rel=0.02)

    def test_student_noninteger_df(self):
        rng = rng_for(8)
        d = StudentT(2.1, 0.0)
        draws = np.array([d.sample(rng) for _ in range(20_000)])
        assert abs(np.median(draws)) < 0.05


class TestCorruptedArm:
    def test_no_corruption_flag(self):
        arm = CorruptedArm(Gaussian(0, 1), Dirac(50.0), 0.0)
        rng = rng_for(1)
        assert not any(arm.sample(rng)[1] for _ in range(2000))

    def test_half_corruption_frequency(self):
        arm = CorruptedArm(Dirac(0.0), Dirac(1.0), 0.5 - 1e-9)
        rng = rng_for(2)
        flags = [arm.sample(rng)[1] for _ in range(100_000)]
        assert np.mean(flags) == pytest.approx(0.5, abs=0.01)

    def test_corruption_frequency_matches_eps(self):
        eps = 0.07
        arm = CorruptedArm(Gaussian(0, 1), Gaussian(100, 1), eps)
        rng = rng_for(3)
        n = 100_000
        flags = [arm.sample(rng)[1] for _ in range(n)]
        assert abs(np.mean(flags) - eps) < 3 * math.sqrt(eps * (1 - eps) / n)

    def test_dirac_mixture_mean(self):
        arm = CorruptedArm(Dirac(2.0), Dirac(10.0), 0.25)
        rng = rng_for(4)
        draws = [arm.sample(rng)[0] for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.75 * 2.0 + 0.25 * 10.0, abs=0.05)

    def test_reproducible_streams(self):
        arm = CorruptedArm(StudentT(3.0, 1.0), Gaussian(-1000, 1), 0.05)
        a = [arm.sample(rng_for(9))[0] for _ in range(1)]
        first = [CorruptedArm(StudentT(3.0, 1.0), Gaussian(-1000, 1), 0.05).sample(rng_for(9)) for _ in range(1)]
        rng1, rng2 = rng_for(9), rng_for(9)
        seq1 = [arm.sample(rng1) for _ in range(500)]
        seq2 = [arm.sample(rng2) for _ in range(500)]
        assert seq1 == seq2
        assert a[0] == first[0][0]

    def test_inlier_must_have_variance(self):
        with pytest.raises(ValueError):
            CorruptedArm(StudentT(1.5), Gaussian(0, 1), 0.1)
        # heavy outliers are fine
        CorruptedArm(Gaussian(0, 1), StudentT(1.5), 0.1)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            CorruptedArm(Gaussian(0, 1), Dirac(0.0), 0.5)


class TestPresets:
    def test_bernoulli_gaps(self):
        env = make_env("bernoulli", 0.05)
        assert int(np.argmax(env.means)) == 2
        assert np.allclose(env.gaps, [0.89, 0.02, 0.0])

    def test_student_gaps(self):
        env = make_env("student", 0.05)
        assert np.allclose(env.gaps, [0.9, 0.05, 0.0])
        assert np.allclose(env.sigmas, math.sqrt(3.0))

    def test_pareto_optimal(self):
        env = make_env("pareto", 0.0)
        assert int(np.argmax(env.means)) == 2

    def test_weibull_means(self):
        env = make_env("weibull", 0.0)
        assert np.allclose(env.means, [0.44, 0.62, 0.95], atol=0.01)

    def test_gap_of_best_is_zero(self):
        for preset in ("bernoulli", "student", "pareto", "weibull"):
            env = make_env(preset, 0.0)
            assert env.gaps[int(np.argmax(env.means))] == 0.0
            assert np.all(env.gaps >= 0.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            make_env("cauchy", 0.0)

    def test_env_validation(self):
        with pytest.raises(ValueError):
            BanditEnv(())
