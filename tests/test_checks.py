"""Every site that requires a finite positive (or nonnegative) value rejects nan and +-inf."""

import math
from argparse import Namespace

import pytest

from corrupted_bandits.cli import _kl_table
from corrupted_bandits.confidence import HuberParams, chebyshev_p, huber_bias_bound
from corrupted_bandits.envs import Gaussian, Pareto, StudentT, Weibull, check_positive
from corrupted_bandits.estimators import SequentialHuber, catoni_estimate, huber_estimate
from corrupted_bandits.harness import ExperimentConfig
from corrupted_bandits.policies import RobustUCBCatoni, RobustUCBMOM
from corrupted_bandits.theory import (
    GapProfile,
    alpha_for_gap_ratio,
    corrupted_bernoulli_kl_bounds,
    min_pulls_bernoulli,
    min_pulls_student,
)


def kl_args(**values):
    """The ``kl`` command's arguments: a valid grid with ``values`` replacing its entries."""
    return Namespace(**{"sigma": 1.0, "eps": 0.1, "gap_min": 0.1, "gap_max": 1.0, "points": 3,
                        **values})


# Site -> (call with the value under test, the name its message gives).
SITES = {
    "Gaussian.std": (lambda v: Gaussian(0.0, v), "std"),
    "StudentT.df": (lambda v: StudentT(v), "df"),
    "Pareto.shape": (lambda v: Pareto(v, 1.0), "shape"),
    "Pareto.scale": (lambda v: Pareto(3.0, v), "scale"),
    "Weibull.shape": (lambda v: Weibull(v, 1.0), "shape"),
    "Weibull.scale": (lambda v: Weibull(2.0, v), "scale"),
    "huber_estimate": (lambda v: huber_estimate([0.0, 1.0], v), "beta"),
    "catoni_estimate.sigma": (lambda v: catoni_estimate([0.0, 1.0], v), "sigma"),
    "catoni_estimate.scale": (lambda v: catoni_estimate([0.0, 1.0], 1.0, v), "scale"),
    "SequentialHuber": (lambda v: SequentialHuber(v), "beta"),
    "chebyshev_p": (lambda v: chebyshev_p(1.0, v), "beta"),
    "HuberParams.beta": (lambda v: HuberParams(beta=v, sigma=1.0), "beta"),
    "HuberParams.sigma": (lambda v: HuberParams(beta=4.0, sigma=v), "sigma"),
    "HuberParams.bias": (lambda v: HuberParams(beta=4.0, sigma=1.0, bias=v), "bias"),
    "huber_bias_bound.beta": (lambda v: huber_bias_bound(1.0, v), "beta"),
    "huber_bias_bound.sigma": (lambda v: huber_bias_bound(v, 4.0), "sigma"),
    "RobustUCBCatoni": (lambda v: RobustUCBCatoni([1.0, v]), "sigmas"),
    "RobustUCBMOM": (lambda v: RobustUCBMOM([1.0, v]), "sigmas"),
    "ExperimentConfig": (lambda v: ExperimentConfig(policy="ucb1", beta_mult=v), "beta_mult"),
    "GapProfile.delta": (lambda v: GapProfile(v, 1.0), "delta"),
    "GapProfile.sigma": (lambda v: GapProfile(0.5, v), "sigma"),
    # The KL controls check gap and sigma as their GapProfile's delta and sigma.
    "corrupted_bernoulli_kl_bounds.gap": (
        lambda v: corrupted_bernoulli_kl_bounds(v, 1.0, 0.1), "delta"),
    "corrupted_bernoulli_kl_bounds.sigma": (
        lambda v: corrupted_bernoulli_kl_bounds(0.5, v, 0.1), "sigma"),
    "alpha_for_gap_ratio.gap": (lambda v: alpha_for_gap_ratio(v, 1.0), "gap"),
    "alpha_for_gap_ratio.sigma": (lambda v: alpha_for_gap_ratio(0.5, v), "sigma"),
    "min_pulls_student.gap": (lambda v: min_pulls_student(v, 1.0), "gap"),
    "min_pulls_student.sigma": (lambda v: min_pulls_student(0.5, v), "sigma"),
    "min_pulls_bernoulli.gap": (lambda v: min_pulls_bernoulli(v, 1.0, 0.1), "gap"),
    "min_pulls_bernoulli.sigma": (lambda v: min_pulls_bernoulli(0.5, v, 0.1), "sigma"),
    "kl --gap-min": (lambda v: _kl_table(kl_args(gap_min=v)), "--gap-min"),
    "kl --gap-max": (lambda v: _kl_table(kl_args(gap_max=v)), "--gap-max"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_site_rejects_non_finite(site, value):
    call, name = SITES[site]
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        call(value)


class TestCheckPositive:
    def test_returns_the_value(self):
        assert check_positive(2.5, "x") == 2.5
        assert check_positive(0.0, "x", nonnegative=True) == 0.0

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_positive_form(self, value):
        with pytest.raises(ValueError, match="^x must be finite and positive$"):
            check_positive(value, "x")

    @pytest.mark.parametrize("value", [-1e-300, math.nan, math.inf, -math.inf])
    def test_nonnegative_form(self, value):
        with pytest.raises(ValueError, match="^x must be finite and nonnegative$"):
            check_positive(value, "x", nonnegative=True)
