"""Property-based invariants: robust estimators, the Bernoulli lower bound, CLI flags and config files.

Examples come from the deterministic profile in ``conftest.py``.  Samples
stay within |x| <= 1e6; magnitudes up to 1e308 and +-inf belong with the
exact Huber root (ROADMAP item 2), which these properties do not yet cover.
"""

import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from corrupted_bandits.cli import _TABLES, ESTIMATORS, main
from corrupted_bandits.envs import PRESETS
from corrupted_bandits.estimators import (
    SequentialHuber,
    catoni_estimate,
    default_root_tol,
    huber_estimate,
    median_of_means,
)
from corrupted_bandits.harness import BIAS_RULES, FIELD_READERS, SWEEP_AXES
from corrupted_bandits.policies import POLICY_NAMES, _ArmBuffer
from corrupted_bandits.theory import min_pulls_bernoulli


reals = st.floats(-1e6, 1e6)
samples = st.lists(reals, min_size=1, max_size=40)
# Positive normal floats: below sys.float_info.min the reference closed form
# loses its precision to subnormal arithmetic (see the scale-free test below).
positive_normal = st.floats(min_value=sys.float_info.min, allow_infinity=False)
# Clipping thresholds from far below to far above the spread of the samples.
betas = st.floats(1e-6, 1e9)


def _in_range(value, xs):
    return min(xs) <= value <= max(xs)


class TestEstimatorRange:
    @given(samples, betas)
    def test_huber(self, xs, beta):
        assert _in_range(huber_estimate(xs, beta), xs)

    @given(samples, betas, st.floats(1e-3, 1e3))
    def test_catoni(self, xs, sigma, scale):
        assert _in_range(catoni_estimate(xs, sigma, scale), xs)

    @given(st.data(), samples)
    def test_median_of_means(self, data, xs):
        blocks = data.draw(st.integers(1, len(xs)))
        assert _in_range(median_of_means(xs, blocks), xs)

    @given(samples, betas)
    # Found at 1500 examples: the anchor of the first four is 48855.5, with no
    # sample within beta of it, and the unclamped Newton step gave -48854.0.
    @example([0.0, 0.0, 97711.0, 97711.0, 0.0, 1.0], 48855.0)
    def test_sequential_huber(self, xs, beta):
        est = SequentialHuber(beta)
        for x in xs:
            est.update(x)
        assert _in_range(est.value, xs)

    @given(samples, betas, st.booleans())
    def test_arm_buffer(self, xs, beta, grow):
        buf = _ArmBuffer(beta, grow=grow)
        for x in xs:
            buf.update(x)
        assert _in_range(buf.value, xs)


    def test_median_of_means_of_equal_samples(self):
        # the block mean sum/size rounds to 699050.9762153405, outside the block
        xs = [699050.9762153404] * 3
        assert _in_range(median_of_means(xs, 1), xs)


class TestEstimatorSymmetry:
    @given(st.data(), samples, betas)
    def test_permutation_invariance_is_bit_exact(self, data, xs, beta):
        shuffled = data.draw(st.permutations(xs))
        assert huber_estimate(shuffled, beta) == huber_estimate(xs, beta)
        assert catoni_estimate(shuffled, beta, 1.0) == catoni_estimate(xs, beta, 1.0)

    @given(samples, betas, reals)
    def test_translation_equivariance(self, xs, beta, shift):
        moved = [x + shift for x in xs]
        tol = default_root_tol(len(xs), beta)
        assert abs(huber_estimate(moved, beta) - (huber_estimate(xs, beta) + shift)) <= tol

    @given(samples, betas)
    def test_oddness(self, xs, beta):
        flipped = [-x for x in xs]
        tol = default_root_tol(len(xs), beta)
        assert abs(huber_estimate(flipped, beta) + huber_estimate(xs, beta)) <= tol


@given(samples, betas)
def test_sequential_huber_equals_batch_at_powers_of_two(xs, beta):
    est = SequentialHuber(beta)
    for n, x in enumerate(xs, start=1):
        est.update(x)
        if n & (n - 1) == 0:
            assert est.value == huber_estimate(xs[:n], beta)


def _min_pulls_bernoulli_exact(gap, sigma, eps):
    """The lower bound's closed form in 50-digit arithmetic on the exact float inputs."""
    with mpmath.workdps(50):
        g, s, e = mpmath.mpf(gap), mpmath.mpf(sigma), mpmath.mpf(eps)
        if g >= 2 * s:
            return 1 / ((1 - 2 * e) * mpmath.log((1 - e) / e))
        if g <= 2 * s * e / mpmath.sqrt(1 - 2 * e):
            return mpmath.inf
        shifted = g * (1 - e) - 2 * e * s
        return 2 * s / (shifted * mpmath.log1p(2 * shifted / (2 * s - shifted)))


@given(positive_normal, positive_normal, st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
# Found at 20,000 examples against the old float reference: its shifted *
# log1p product overflowed (returned 0.0), and went subnormal (lost digits).
@example(7.208e307, 3.868e307, 0.03125)
@example(2.57e-284, 5.88e-247, 5.88e-247)
# Found against this oracle: (1 - 2 eps) / eps overflowed for a subnormal eps;
# 2 sigma overflowed inside the window's lower end; and s = (gap / sigma)
# (1 - eps) - 2 eps cancelled to no correct digit next to that end.
@example(2.0, 1.0, 5e-324)
@example(6.355805030768232e307, 8.98846567431158e307, 0.25)
@example(1.175494351e-38, 0.4999999999999999, 1.175494351e-38)
def test_min_pulls_bernoulli_matches_closed_form(gap, sigma, eps):
    exact = _min_pulls_bernoulli_exact(gap, sigma, eps)
    assert min_pulls_bernoulli(gap, sigma, eps) == pytest.approx(float(exact), rel=1e-12)


def test_min_pulls_bernoulli_is_scale_free_at_subnormal_inputs():
    # The bound depends on gap / sigma alone; evaluating gap (1 - eps) - 2 eps
    # sigma in subnormal arithmetic gave 1.82 here against 31.8 at unit scale.
    tiny = 5e-324
    assert min_pulls_bernoulli(tiny, tiny, 0.25) == pytest.approx(min_pulls_bernoulli(1.0, 1.0, 0.25))


any_float = st.floats().map(repr)
any_int = st.integers().map(str)


def _exits_cleanly(argv):
    """``main(argv)`` returns 0 or exits with one line of text, never a traceback."""
    try:
        assert main(argv) == 0
    except SystemExit as exc:
        assert isinstance(exc.code, str) and exc.code and "\n" not in exc.code


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("estimate") / "data.txt"
    values = np.random.default_rng(1).standard_t(3.0, size=50)
    path.write_text("\n".join(format(v, ".17g") for v in values))
    return path


def _flags(values: dict, reads) -> list[str]:
    """The flags a table or estimator reads, with their drawn values; the others would end the command."""
    return [f"--{name.replace('_', '-')}={values[name]}" for name in reads]


@given(st.sampled_from(sorted(ESTIMATORS)), any_float, any_float, any_float, any_int)
def test_estimate_flags_never_traceback(data_path, estimator, beta, sigma, scale, blocks):
    values = {"beta": beta, "sigma": sigma, "scale": scale, "blocks": blocks}
    _exits_cleanly(["estimate", str(data_path), f"--estimator={estimator}",
                    *_flags(values, ESTIMATORS[estimator][1])])


@given(
    st.sampled_from(["kl", "pulls"]),
    any_float,
    any_float,
    any_float,
    any_float,
    # Bounded so a table stays small; the edge cases 0 and negative are inside.
    st.integers(-5, 60).map(str),
    any_int,
)
def test_bounds_flags_never_traceback(
    tmp_path_factory, table, sigma, eps, gap_min, gap_max, points, horizon
):
    out = tmp_path_factory.getbasetemp() / "bounds.csv"
    values = {"sigma": sigma, "eps": eps, "gap_min": gap_min, "gap_max": gap_max,
              "points": points, "horizon": horizon}
    _exits_cleanly(["bounds", f"--table={table}", f"--out={out}",
                    *_flags(values, _TABLES[table][1])])


def _read_by(policy: str, values: dict) -> dict:
    """The drawn config fields that the policy reads; the others would end the command.

    ``p_value`` is read only in the explicit p mode."""
    return {name: value for name, value in values.items() if policy in FIELD_READERS[name]
            and (name != "p_value" or values.get("p_mode") == "explicit")}


# Any float or integer, with the valid ranges mixed in so that runs happen too.
rates = st.one_of(st.floats(0.0, 0.5), st.floats()).map(repr)
multipliers = st.one_of(st.floats(0.0, 20.0), st.floats()).map(repr)
seeds = st.one_of(st.integers(0, 2**64), st.integers()).map(str)
# A run at this size takes milliseconds; only the flags under test vary.
PINNED = ["--horizon=20", "--reps=1", "--jobs=1"]


@given(st.sampled_from(sorted(PRESETS)), st.sampled_from(POLICY_NAMES), rates, rates, multipliers,
       seeds)
# Found at 1500 examples: beta * beta underflowed to 0 inside chebyshev_p.
@example("bernoulli", "huber_ucb", "0.0", "0.0", "1e-300", "0")
def test_run_flags_never_traceback(tmp_path_factory, env, policy, eps_true, eps_assumed,
                                   beta_mult, seed):
    out = tmp_path_factory.getbasetemp() / "run.csv"
    read = _read_by(policy, {"eps_assumed": eps_assumed, "beta_mult": beta_mult})
    _exits_cleanly(["run", f"--env={env}", f"--policy={policy}", f"--eps-true={eps_true}",
                    *_flags(read, read), f"--seed={seed}", f"--out={out}", *PINNED])


@given(
    st.sampled_from(sorted(PRESETS)),
    st.sampled_from(POLICY_NAMES),
    st.sampled_from(SWEEP_AXES),
    st.one_of(st.lists(st.one_of(rates, multipliers), min_size=1, max_size=3).map(",".join),
              st.text(max_size=12)),
    rates,
    rates,
    multipliers,
    seeds,
)
def test_sweep_flags_never_traceback(tmp_path_factory, env, policy, axis, values, eps_true,
                                     eps_assumed, beta_mult, seed):
    out = tmp_path_factory.getbasetemp() / "sweep.csv"
    read = _read_by(policy, {"eps_assumed": eps_assumed, "beta_mult": beta_mult})
    _exits_cleanly(["sweep", f"--env={env}", f"--policy={policy}", f"--axis={axis}",
                    f"--values={values}", f"--eps-true={eps_true}", *_flags(read, read),
                    f"--seed={seed}", f"--out={out}", *PINNED])


# Config-file-only fields, and the run's size, with valid values mixed into junk.
p_modes = st.one_of(st.sampled_from(["chebyshev", "exact", "explicit"]), st.text(max_size=12))
p_values = st.one_of(st.none(), st.floats())
bias_rules = st.one_of(st.sampled_from(sorted(BIAS_RULES)), st.text(max_size=12))
clips = st.lists(st.floats(), min_size=2, max_size=3)
horizons = st.one_of(st.integers(max_value=50), st.floats(max_value=50))
file_seeds = st.one_of(st.integers(), st.floats())
overlays = st.one_of(st.booleans(), st.none(), st.integers(), st.text(max_size=6))


@given(st.sampled_from(sorted(PRESETS)), st.sampled_from(POLICY_NAMES), p_modes, p_values,
       bias_rules, clips, horizons, file_seeds, overlays)
# Each of these failed inside the first episode, with a traceback.
@example("bernoulli", "exp3", "chebyshev", None, "zero", [1.0, 0.0], 20, 0, False)
@example("bernoulli", "exp3", "chebyshev", None, "zero", [0.0, 1.0, 2.0], 20, 0, False)
@example("bernoulli", "exp3", "chebyshev", None, "zero", [-math.inf, math.inf], 20, 0, False)
@example("bernoulli", "exp3", "chebyshev", None, "zero", [0.0, 1.0], 20.5, 0, False)
@example("bernoulli", "exp3", "chebyshev", None, "zero", [0.0, 1.0], 20, 1.5, False)
@example("bernoulli", "huber_ucb", "explicit", 1e-200, "zero", [0.0, 1.0], 20, 0, False)
def test_config_file_never_tracebacks(tmp_path_factory, env, policy, p_mode, p_value, bias_rule,
                                      clip, horizon, seed, overlay):
    base = tmp_path_factory.getbasetemp()
    config = {"env": env, "policy": policy, "horizon": horizon, "seed": seed, "overlay": overlay,
              **_read_by(policy, {"p_mode": p_mode, "p_value": p_value, "bias_rule": bias_rule,
                                  "exp3_clip": clip})}
    (base / "config.json").write_text(json.dumps(config))
    _exits_cleanly(["run", f"--config={base / 'config.json'}", "--reps=1", "--jobs=1",
                    f"--out={base / 'config_run.csv'}"])
