"""The float Huber solvers against the exact root of :mod:`huber_oracle`.

Criterion 1 checks a residual tolerance, which any point near the root
passes; these tests check the root itself.  Each bound is in units in the
last place of ``max|x|`` and comes from a measured worst case, stated beside
it.  The strict xfails are inputs on which today's tolerance solver is
known to miss the exact root: interval zero sets (it returns the first point
that passes the tolerance, not the midpoint), and magnitudes up to 1e308 or
+-inf mixed into a finite majority (its global prefix sums overflow or
cancel).  An exact solver makes the bounds zero and the xfails pass.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from corrupted_bandits.estimators import (
    HuberSolverError,
    SequentialHuber,
    _ArmBuffer,
    huber_estimate,
)
from huber_oracle import exact_huber_root, ulps_off, zero_set

# Measured worst cases: 3.0 ulps over 5000 random examples of the property's
# strategy (the deterministic profile's 60 reach 0.96); 13.5 ulps over the
# 300-case sample below; 11 for _ArmBuffer and 2.0 for its Catoni form over
# 300-step streams at beta 0.3, 1 and 4, seeds 0-5; 9.5 for SequentialHuber
# anchors over 20 streams of 1024.
PROPERTY_ULPS = 4
SAMPLE_ULPS = 16
ARM_BUFFER_ULPS = 12
CATONI_ULPS = 2
ANCHOR_ULPS = 10


def _t3_sample(rng, n, outliers):
    """t(3) samples, scaled and shifted, with 10% of them moved to 100 if ``outliers``."""
    xs = rng.standard_t(3, size=n) * rng.uniform(0.1, 10) + rng.uniform(-50, 50)
    if outliers:
        xs[rng.random(n) < 0.1] = 100.0
    return xs.tolist()


def _unique_root(xs, beta):
    """The exact root rounded once, or None when the zero set is an interval."""
    a, c = zero_set(xs, beta)
    return exact_huber_root(xs, beta) if a == c else None


class TestOracle:
    @pytest.mark.parametrize("xs, beta, ends, root", [
        ([3.5], 1.0, (3.5, 3.5), 3.5),
        ([1.0, 2.0, 4.0], 10.0, (7 / 3, 7 / 3), 7 / 3),  # no clipping: the mean
        ([0.0, 1.0, 50.0], 1.0, (1.0, 1.0), 1.0),  # the outlier clipped: the median
        ([0.0, 10.0], 1.0, (1.0, 9.0), 5.0),  # an interval: its midpoint
        ([0.0, 0.0, 3.0, 100.0], 1.0, (1.0, 2.0), 1.5),
        ([0.0, math.inf], 1.0, (1.0, math.inf), 1.0),  # unbounded: the finite end
        ([-math.inf, 0.0], 2.0, (-math.inf, -2.0), -2.0),
        ([0.0, 1.0, 2.0, 3.0, math.inf], 1.0, (2.0, 2.0), 2.0),
    ])
    def test_known_roots(self, xs, beta, ends, root):
        assert tuple(map(float, zero_set(xs, beta))) == ends
        assert exact_huber_root(xs, beta) == root

    def test_root_is_rounded_once(self):
        # With no clipping the root is the mean; rounded once it is 0.2, while
        # the float sum divided by 3 is 0.20000000000000004.
        xs = [0.1, 0.2, 0.3]
        assert sum(xs) / 3 != 0.2
        assert exact_huber_root(xs, 10.0) == 0.2

    @pytest.mark.parametrize("xs, beta", [([math.inf], 1.0), ([math.inf, -math.inf], 1.0),
                                          ([1.0, math.nan], 1.0), ([1.0], 0.0)])
    def test_rejects_inputs_without_a_root(self, xs, beta):
        with pytest.raises(ValueError):
            zero_set(xs, beta)


class TestHuberEstimate:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.floats(1e-6, 1e9))
    def test_within_bound_of_exact_root(self, xs, beta):
        exact = _unique_root(xs, beta)
        assume(exact is not None)
        assert ulps_off(huber_estimate(xs, beta), exact, max(map(abs, xs))) <= PROPERTY_ULPS

    def test_sample_within_bound(self):
        # 300 cases, n from 2 to 199, a third with outliers, beta uniform in [0.05, 10].
        rng = np.random.default_rng(1)
        worst = checked = 0
        for case in range(300):
            xs = _t3_sample(rng, int(rng.integers(2, 200)), outliers=case % 3 == 0)
            beta = float(rng.uniform(0.05, 10))
            exact = _unique_root(xs, beta)
            if exact is not None:
                worst = max(worst, ulps_off(huber_estimate(xs, beta), exact, max(map(abs, xs))))
                checked += 1
        assert checked >= 290 and worst <= SAMPLE_ULPS


class TestStreams:
    @pytest.mark.parametrize("grow, bound", [(False, ARM_BUFFER_ULPS), (True, CATONI_ULPS)],
                             ids=["plain", "catoni"])
    @pytest.mark.parametrize("beta", [0.3, 4.0])
    def test_arm_buffer_after_every_update(self, grow, bound, beta):
        for seed in range(2):
            xs = _t3_sample(np.random.default_rng(seed), 100, outliers=grow)
            buf = _ArmBuffer(beta, grow=grow)
            for i, x in enumerate(xs, 1):
                buf.update(x)
                threshold = beta * math.sqrt(i) if grow else beta
                exact = _unique_root(xs[:i], threshold)
                if exact is not None:
                    assert ulps_off(buf.value, exact, max(map(abs, xs[:i]))) <= bound, (seed, i)

    def test_sequential_anchors(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            xs = _t3_sample(rng, 256, outliers=seed % 2 == 1)
            beta = float(rng.uniform(0.05, 10))
            est = SequentialHuber(beta)
            for i, x in enumerate(xs, 1):
                est.update(x)
                if i & (i - 1) == 0:
                    exact = _unique_root(xs[:i], beta)
                    if exact is not None:
                        assert ulps_off(est.anchor, exact, max(map(abs, xs[:i]))) <= ANCHOR_ULPS


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="on an interval of roots the solver returns the first point within its "
                          "tolerance, not the midpoint")
@pytest.mark.parametrize("xs, beta", [([0.0, 0.0, 3.0, 100.0], 1.0),
                                      ([0.0, 1.0, 2.0, 10.0, 11.0, 30.0], 1.0)])
def test_interval_root_is_the_midpoint(xs, beta):
    a, c = zero_set(xs, beta)
    assert a < c
    assert huber_estimate(xs, beta) == exact_huber_root(xs, beta)


@pytest.mark.xfail(strict=True, raises=HuberSolverError,
                   reason="the global prefix sums overflow or hold +-inf, and the root is not "
                          "located within the iteration cap")
@pytest.mark.parametrize("xs", [
    [0.0, 1.0, 2.0, 1e200, 1e200],
    [0.0, 1.0, 2.0, 1e308, 1e308],
    [0.0, 1.0, 2.0, -1e300, 5.0],
    [0.0, 1.0, 2.0, 3.0, math.inf],
    [-math.inf, 0.0, 1.0, 2.0, 3.0],
    [-math.inf, 0.0, 1.0, 2.0, math.inf],
])
def test_huge_and_infinite_samples_in_a_finite_majority(xs):
    assert huber_estimate(xs, 1.0) == exact_huber_root(xs, 1.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="-1e308 and 1e308 cancel in the prefix sums, so the root is off by half")
def test_opposite_huge_samples_cancel():
    xs = [-1e308, 0.0, 1.0, 2.0, 1e308]
    assert exact_huber_root(xs, 1.0) == 1.0
    assert huber_estimate(xs, 1.0) == 1.0
