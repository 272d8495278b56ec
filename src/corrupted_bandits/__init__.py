"""Heavy-tailed bandit simulation under stochastic, possibly unbounded corruption.

Robust index policies built on the Huber estimator of location (batch and
streaming), baseline policies for comparison, closed-form confidence radii
and regret bounds, corrupted reward environments, and a seeded Monte-Carlo
experiment harness.
"""

from .confidence import (
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
from .envs import (
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
from .estimators import (
    HuberSolverError,
    SequentialHuber,
    catoni_estimate,
    floor_pow2,
    huber_estimate,
    mad_scale,
    median_of_means,
)
from .harness import (
    ExperimentConfig,
    RegretCurve,
    bound_overlay,
    monte_carlo_regret,
    read_results,
    resolve,
    run_episode,
    sweep,
    write_results,
)
from .policies import (
    Exp3,
    HuberUCB,
    POLICY_NAMES,
    RobustUCBCatoni,
    RobustUCBMOM,
    SeqHuberUCB,
    UCB1,
)
from .theory import (
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

__version__ = "0.1.0"
