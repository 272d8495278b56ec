"""Property-based invariants: robust estimators, the Bernoulli lower bound, CLI numeric flags.

Examples come from the deterministic profile in ``conftest.py``.  Samples
stay within |x| <= 1e6; magnitudes up to 1e308 and +-inf belong with the
exact Huber root (ROADMAP item 2), which these properties do not yet cover.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrupted_bandits.cli import ESTIMATORS, main
from corrupted_bandits.estimators import (
    SequentialHuber,
    catoni_estimate,
    default_root_tol,
    huber_estimate,
    median_of_means,
)
from corrupted_bandits.policies import _ArmBuffer
from corrupted_bandits.theory import min_pulls_bernoulli

MACHINE_EPS = 2.0**-52

reals = st.floats(-1e6, 1e6)
samples = st.lists(reals, min_size=1, max_size=40)
# Positive normal floats: below sys.float_info.min both forms of the lower
# bound lose their precision to subnormal arithmetic (see the xfail below).
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


    @pytest.mark.xfail(strict=True, reason="a block mean sum/size can round outside the block")
    def test_median_of_means_of_equal_samples(self):
        xs = [699050.9762153404] * 3
        assert _in_range(median_of_means(xs, 1), xs)  # returns 699050.9762153405

    @pytest.mark.xfail(strict=True, reason="the Newton step off an empty anchor window is unbounded")
    def test_sequential_huber_after_a_flat_anchor(self):
        # The anchor of the first four is 48855.5, with no sample within beta
        # of it; the last sample is the only one in the correction's window.
        xs = [0.0, 0.0, 97711.0, 97711.0, 0.0, 1.0]
        est = SequentialHuber(48855.0)
        for x in xs:
            est.update(x)
        assert _in_range(est.value, xs)  # returns -48854.0


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


def _min_pulls_bernoulli_reference(gap, sigma, eps):
    """The lower bound's closed form as it stood before it read the KL controls."""
    if gap >= 2.0 * sigma:
        return 1.0 / ((1.0 - 2.0 * eps) * math.log((1.0 - eps) / eps))
    if gap <= 2.0 * sigma * eps / math.sqrt(1.0 - 2.0 * eps):
        return math.inf
    shifted = gap * (1.0 - eps) - 2.0 * eps * sigma
    return 2.0 * sigma / (shifted * math.log1p(2.0 * shifted / (2.0 * sigma - shifted)))


@given(positive_normal, positive_normal, st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
def test_min_pulls_bernoulli_matches_closed_form(gap, sigma, eps):
    try:
        expected = _min_pulls_bernoulli_reference(gap, sigma, eps)
    except ZeroDivisionError:
        # The reference's denominator underflowed; the KL control is divided
        # by 2 sigma first, so it is either a positive float or 0 (bound inf).
        assert min_pulls_bernoulli(gap, sigma, eps) > 0.0
        return
    rel = 1e-12
    if gap >= 2.0 * sigma:
        # The reference rounds (1 - eps) / eps before its log; near eps = 1/2
        # that costs it about one ulp of the quotient per unit of the log.
        rel += 4.0 * MACHINE_EPS / math.log((1.0 - eps) / eps)
    assert min_pulls_bernoulli(gap, sigma, eps) == pytest.approx(expected, rel=rel)


@pytest.mark.xfail(strict=True, reason="subnormal gap and sigma lose the corrupted gap's precision")
def test_min_pulls_bernoulli_is_scale_free_at_subnormal_inputs():
    # The bound depends on gap / sigma alone, but gap (1 - eps) - 2 eps sigma
    # is evaluated in subnormal arithmetic: 1.82 here against 31.8 at unit scale.
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


@given(st.sampled_from(sorted(ESTIMATORS)), any_float, any_float, any_float, any_int)
def test_estimate_flags_never_traceback(data_path, estimator, beta, sigma, scale, blocks):
    _exits_cleanly(["estimate", str(data_path), f"--estimator={estimator}", f"--beta={beta}",
                    f"--sigma={sigma}", f"--scale={scale}", f"--blocks={blocks}"])


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
    _exits_cleanly(["bounds", f"--table={table}", f"--out={out}", f"--sigma={sigma}",
                    f"--eps={eps}", f"--gap-min={gap_min}", f"--gap-max={gap_max}",
                    f"--points={points}", f"--horizon={horizon}"])
