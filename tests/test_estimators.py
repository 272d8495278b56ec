import math

import numpy as np
import pytest

from corrupted_bandits.estimators import (
    MAX_SOLVER_ITER,
    HuberSolverError,
    SequentialHuber,
    _huber_root_sorted,
    _RewardLog,
    catoni_estimate,
    default_root_tol,
    floor_pow2,
    huber_estimate,
    influence,
    influence_derivative,
    mad_scale,
    median_of_means,
)
from corrupted_bandits.policies import _ArmBuffer


def huber_loss_grid_oracle(samples, beta, lo, hi, coarse=20001, fine=20001):
    """Grid-search minimizer of the Huber loss; two-stage refinement.

    The loss is convex in theta, so refining around the coarse minimizer is
    exact up to the fine grid resolution.
    """
    x = np.asarray(samples, dtype=float)

    def loss(thetas):
        r = np.abs(x[:, None] - thetas[None, :])
        vals = np.where(r <= beta, 0.5 * r * r, beta * r - 0.5 * beta * beta)
        return vals.sum(axis=0)

    grid = np.linspace(lo, hi, coarse)
    step = grid[1] - grid[0]
    best = grid[np.argmin(loss(grid))]
    refined = np.linspace(best - 2 * step, best + 2 * step, fine)
    return float(refined[np.argmin(loss(refined))])


class TestInfluence:
    def test_identity_region(self):
        assert influence(0.5, 1.0) == 0.5

    def test_clipped_region(self):
        assert influence(-3.0, 1.0) == -1.0

    def test_boundary_continuity(self):
        assert influence(1.0, 1.0) == 1.0

    def test_odd_and_bounded(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(scale=5.0, size=200)
        for beta in (0.1, 1.0, 7.0):
            vals = influence(xs, beta)
            assert np.allclose(influence(-xs, beta), -vals)
            assert np.all(np.abs(vals) <= beta)

    def test_derivative_indicator(self):
        assert influence_derivative(0.0, 1.0) == 1.0
        assert influence_derivative(2.0, 1.0) == 0.0
        # closed-interval convention at the clip point
        assert influence_derivative(1.0, 1.0) == 1.0
        assert influence_derivative(-1.0, 1.0) == 1.0

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            influence(1.0, 0.0)
        with pytest.raises(ValueError):
            influence_derivative(1.0, -1.0)


class TestHuberEstimate:
    def test_symmetry(self):
        for beta in (0.3, 1.0, 10.0):
            assert abs(huber_estimate([-1.0, 1.0], beta)) < 1e-12

    def test_large_beta_is_mean(self):
        assert huber_estimate([0.0, 1.0, 2.0, 3.0], 100.0) == pytest.approx(1.5, abs=1e-9)

    def test_grid_oracle_contaminated(self):
        est = huber_estimate([0.0, 0.0, 0.0, 10.0], 1.0)
        oracle = huber_loss_grid_oracle([0.0, 0.0, 0.0, 10.0], 1.0, 0.0, 10.0)
        assert abs(est - oracle) < 1e-5
        # analytic root: 3*psi(-theta) + psi(10-theta) = 0 -> theta = 1/3
        assert est == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_root_contract_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 500))
            x = rng.normal(size=n)
            if rng.random() < 0.5:
                x[: n // 5] = 50.0
            beta = float(rng.uniform(0.05, 10.0))
            theta = huber_estimate(x, beta)
            resid = np.clip(x - theta, -beta, beta).sum()
            assert abs(resid) <= default_root_tol(n, beta)
            assert x.min() <= theta <= x.max()

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_t(3, size=101)
        beta = 2.0
        base = huber_estimate(x, beta)
        for shift in (-17.5, 0.3, 4e3):
            shifted = huber_estimate(x + shift, beta)
            assert shifted - shift == pytest.approx(base, abs=2 * default_root_tol(x.size, beta) / x.size + 1e-9 * abs(shift))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=64)
        beta = 1.3
        base = huber_estimate(x, beta)
        for c in (0.05, 3.0, 250.0):
            scaled = huber_estimate(c * x, c * beta)
            assert scaled == pytest.approx(c * base, abs=1e-6 * c)

    def test_small_beta_near_median(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.normal(size=31))
        spread = x[-1] - x[0]
        est = huber_estimate(x, 1e-6 * spread)
        m = x.size // 2
        window = x[m + 1] - x[m - 1]
        assert abs(est - np.median(x)) <= window

    def test_monotone_in_single_sample(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        beta = 0.8
        base = huber_estimate(x, beta)
        for bump in (0.1, 1.0, 100.0):
            y = x.copy()
            y[7] += bump
            assert huber_estimate(y, beta) >= base - 1e-9

    def test_variance_domination(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_t(2.5, size=200)
            beta = float(rng.uniform(0.2, 5.0))
            theta = huber_estimate(x, beta)
            psi = np.clip(x - theta, -beta, beta)
            assert psi.var() <= x.var() + 1e-12

    def test_constant_samples(self):
        assert huber_estimate([2.5] * 10, 0.01) == 2.5

    def test_empty_and_bad_beta(self):
        with pytest.raises(ValueError):
            huber_estimate([], 1.0)
        with pytest.raises(ValueError):
            huber_estimate([1.0], 0.0)


def _searchsorted_window(xs, prefix, beta, theta, i, j):
    inner = (prefix.item(j) - prefix.item(i)) - (j - i) * theta
    return inner + beta * ((xs.size - j) - i)


def _searchsorted_root(xs, prefix, beta, tol, guess=None):
    """The solver in its numpy ``searchsorted`` form, the reference for the bisection form.

    ``xs`` and ``prefix`` are arrays of exactly the sorted values and their
    cumulative sums with a leading zero.
    """

    def influence_sum(theta):
        i = xs.searchsorted(theta - beta, "left").item()
        j = xs.searchsorted(theta + beta, "right").item()
        return _searchsorted_window(xs, prefix, beta, theta, i, j), j - i

    n = xs.size
    sample_lo = lo = xs.item(0)
    sample_hi = hi = xs.item(n - 1)
    if lo == hi:
        return lo
    if guess is not None and lo < guess < hi:
        width = max((hi - lo) * 1e-3, beta * 1e-3, 1e-12)
        for _ in range(40):
            a = max(lo, guess - width)
            b = min(hi, guess + width)
            ia, ib = xs.searchsorted((a - beta, b - beta), "left").tolist()
            ja, jb = xs.searchsorted((a + beta, b + beta), "right").tolist()
            ga = _searchsorted_window(xs, prefix, beta, a, ia, ja)
            gb = _searchsorted_window(xs, prefix, beta, b, ib, jb)
            if ga >= 0.0 >= gb:
                lo, hi = a, b
                break
            width *= 8.0
            if a == lo and b == hi:
                break
    theta = 0.5 * (lo + hi)
    for _ in range(MAX_SOLVER_ITER):
        g, m = influence_sum(theta)
        if abs(g) <= tol:
            for _ in range(4):
                if m <= 0 or g == 0.0:
                    break
                cand = min(max(theta + g / m, sample_lo), sample_hi)
                g2, m2 = influence_sum(cand)
                if abs(g2) < abs(g):
                    theta, g, m = cand, g2, m2
                else:
                    break
            return theta
        if g > 0.0:
            lo = theta
        else:
            hi = theta
        newton = theta + g / m if m > 0 else None
        if newton is not None and lo < newton < hi:
            theta = newton
        else:
            theta = 0.5 * (lo + hi)
    raise HuberSolverError("no root")


def _reference_estimate(samples, beta):
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    return _searchsorted_root(xs, prefix, beta, default_root_tol(xs.size, beta))


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def _same(a, b):
    """Equal outcomes: the same exception type, or the same float bits (nan equal to nan)."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.float64(a).tobytes() == np.float64(b).tobytes()


EDGE_INPUTS = [
    [0.0, 1.0, 2.0, 1e200, 1e200],
    [0.0, 1.0, 2.0, 3.0, math.inf],
    [0.0, 1.0, 2.0, 3.0, -math.inf],
    [0.0, 1.0, 2.0, math.nan],
    [-math.inf, math.inf],
    [math.inf, math.inf],
    [math.nan],
    [1e308, -1e308, 0.0],
    [0.0, 1.0, 2.0, 1e308, 1e308],
    [5.0],
    [1.0, 1.0, 2.0],
]


class TestSortedSolver:
    """The bisection-window solver equals its numpy ``searchsorted`` form bit for bit."""

    @pytest.mark.parametrize("beta", [1.0, 1e300])
    @pytest.mark.parametrize("samples", EDGE_INPUTS, ids=repr)
    def test_edge_inputs_match_searchsorted_form(self, samples, beta):
        ours = _outcome(huber_estimate, samples, beta)
        ref = _outcome(_reference_estimate, samples, beta)
        assert _same(ours, ref), (ours, ref)

    @staticmethod
    def streams():
        rng = np.random.default_rng(7)
        yield "duplicates", rng.integers(0, 6, size=300) * 0.5, (0.5, 1.0, 1.5)
        yield "heavy", rng.standard_t(1.5, size=300), (0.1, 1.0, 7.0)
        scale = 10.0 ** rng.uniform(-300, 300, size=300)
        yield "magnitudes", rng.choice([-1.0, 1.0], size=300) * scale, (1.0, 1e150, 1e300)
        mixed = rng.normal(size=300)
        mixed[4::9] = 1e8
        yield "outliers", mixed, (0.3, 2.0)

    @pytest.mark.parametrize("name", ["duplicates", "heavy", "magnitudes", "outliers"])
    def test_views_with_spare_capacity_match_searchsorted_form(self, name):
        # Views of buffers longer than n, as _ArmBuffer holds them; guesses at
        # sample points put window edges exactly on samples (ties at both edges).
        data, betas = next((d, b) for n_, d, b in self.streams() if n_ == name)
        rng = np.random.default_rng(8)
        for n in (2, 3, 17, 64, 300):
            xs = np.sort(data[:n])
            prefix = np.concatenate(([0.0], np.cumsum(xs)))
            xs_buf = np.concatenate((xs, np.full(5, np.nan)))
            prefix_buf = np.concatenate((prefix, np.full(5, np.nan)))
            for beta in betas:
                tol = default_root_tol(n, beta)
                guesses = [None, 0.0, *rng.choice(xs, size=3).tolist(), *(xs[[0, -1]] + beta).tolist()]
                for guess in guesses:
                    ours = _outcome(
                        _huber_root_sorted, memoryview(xs_buf), memoryview(prefix_buf), n, beta, tol, guess
                    )
                    ref = _outcome(_searchsorted_root, xs, prefix, beta, tol, guess)
                    assert _same(ours, ref), (n, beta, guess, ours, ref)

    @pytest.mark.parametrize("grow", [False, True])
    @pytest.mark.parametrize("name", ["duplicates", "heavy", "magnitudes", "outliers"])
    def test_arm_buffer_stream_matches_searchsorted_form(self, name, grow):
        # Each update's root, warm-started at the previous one, through two
        # buffer doublings; Catoni's threshold grows with the count.
        data, betas = next((d, b) for n_, d, b in self.streams() if n_ == name)
        for beta in betas:
            buf, ref = _ArmBuffer(beta, grow=grow), 0.0
            for n, x in enumerate(data.tolist(), start=1):
                raised = _outcome(buf.update, x)
                ours = buf.value if raised is None else raised
                xs = np.sort(data[:n])
                b = beta * math.sqrt(n) if grow else beta
                prefix = np.concatenate(([0.0], np.cumsum(xs)))
                ref = _outcome(_searchsorted_root, xs, prefix, b, default_root_tol(n, b), ref)
                assert _same(ours, ref), (n, beta, ours, ref)
                if isinstance(ref, type):  # both raised; the stream ends here
                    break

    def test_two_dimensional_input_is_flattened(self):
        x = np.array([[0.0, 1.0], [2.0, 10.0]])
        assert huber_estimate(x, 1.0) == huber_estimate([0.0, 1.0, 2.0, 10.0], 1.0)
        assert huber_estimate(x, 1.0) == _reference_estimate(x, 1.0)


class TestCatoni:
    def test_shared_solver_on_symmetric_data(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        beta = 1.0 * math.sqrt(4)
        assert catoni_estimate(x, sigma=1.0) == huber_estimate(x, beta)

    def test_threshold_arithmetic(self):
        # n=4, sigma=1, scale=1 -> beta=2; equivalent call must agree exactly
        x = np.array([0.0, 0.5, 1.0, 4.0])
        assert catoni_estimate(x, 1.0, 1.0) == huber_estimate(x, 2.0)

    def test_growing_threshold_follows_contamination(self):
        # With n large enough that sigma*sqrt(n) > 4*sigma, the heavy-tail
        # tuning tracks the contaminated mean more closely than beta = 4*sigma.
        x = np.concatenate([np.zeros(96), np.full(4, 1000.0)])
        contaminated_mean = x.mean()
        fragile = catoni_estimate(x, sigma=1.0)
        robust = huber_estimate(x, 4.0)
        assert abs(fragile - contaminated_mean) < abs(robust - contaminated_mean)

    def test_validation(self):
        with pytest.raises(ValueError):
            catoni_estimate([1.0], 0.0)
        with pytest.raises(ValueError):
            catoni_estimate([1.0], 1.0, scale=0.0)


class TestMedianOfMeans:
    def test_single_block_is_mean(self):
        x = [1.0, 4.0, -2.0, 7.0]
        assert median_of_means(x, 1) == np.mean(x)

    def test_n_blocks_is_median(self):
        x = [5.0, 1.0, 9.0, 2.0, 3.0]
        assert median_of_means(x, len(x)) == np.median(x)

    def test_hand_computed(self):
        assert median_of_means([1, 2, 3, 4, 5, 6], 3) == 3.5

    def test_remainder_from_front(self):
        # 7 samples, 3 blocks -> sizes 3,2,2
        x = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 4.0, 4.0])
        expected = np.median([0.0, 10.0, 4.0])
        assert median_of_means(x, 3) == expected

    @staticmethod
    def numpy_block_means(x, blocks):
        """Block means in array form, the reference for median_of_means."""
        base, rem = divmod(x.size, blocks)
        sizes = np.full(blocks, base)
        sizes[:rem] += 1
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        prefix = np.concatenate(([0.0], np.cumsum(x)))
        return np.diff(prefix[bounds]) / sizes

    @pytest.mark.parametrize("blocks", [1, 2, 3, 8, 13, 68])
    def test_matches_numpy_median(self, blocks):
        rng = np.random.default_rng(blocks)
        for n in (blocks, blocks + 3, 5 * blocks + 1, 1000):
            x = rng.standard_t(2, size=n) * 10.0
            expected = np.median(self.numpy_block_means(x, blocks))
            assert median_of_means(x, blocks) == expected

    @pytest.mark.parametrize("blocks", [3, 4])
    def test_nan_block_mean_is_nan(self, blocks):
        # +inf and -inf in the last block make its mean nan.
        x = np.random.default_rng(5).normal(size=12)
        x[-2:] = [math.inf, -math.inf]
        with np.errstate(invalid="ignore"):  # the reference's own inf - inf
            assert math.isnan(np.median(self.numpy_block_means(x, blocks)))
        assert math.isnan(median_of_means(x, blocks))

    def test_validation(self):
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            median_of_means([], 1)


def _student_draws(n, seed):
    return (np.random.default_rng(seed).standard_t(2, size=n) * 10.0).tolist()


# Reward streams for the running-sum record: heavy tails, equal samples (the
# clamp), signed zeros (cumsum's first sum is the first value itself), a 1e308
# pair (the sums overflow to inf, later blocks read nan) and +-inf.
REWARD_STREAMS = {
    "student": _student_draws(80, 1),
    "equal": [699050.9762153404] * 20,
    "zeros": [-0.0, -0.0, 0.0, -0.0, -0.0],
    "overflow": _student_draws(10, 2) + [1e308, 1e308] + _student_draws(10, 3),
    "infinite": _student_draws(10, 4) + [math.inf] + _student_draws(5, 5) + [-math.inf, 1.0],
}


class TestRewardLog:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", list(REWARD_STREAMS))
    def test_streamed_record_equals_array_bit_for_bit(self, name):
        values = REWARD_STREAMS[name]
        log = _RewardLog()
        for s, x in enumerate(values, start=1):
            log.update(x)
            for blocks in {1, 2, 3, min(s, math.ceil(8.0 * math.log(s + 1)))}:
                if blocks <= s:
                    expected = median_of_means(np.array(values[:s]), blocks)
                    assert median_of_means(log, blocks).hex() == expected.hex()


class TestMadScale:
    def test_constant(self):
        assert mad_scale([3.0, 3.0, 3.0]) == 0.0

    def test_single_outlier_ignored(self):
        assert mad_scale([0.0, 0.0, 0.0, 0.0, 100.0]) == 0.0

    def test_gaussian_consistency(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=100_000)
        assert mad_scale(x) == pytest.approx(1.0, abs=0.02)


class TestFloorPow2:
    @pytest.mark.parametrize("t,expected", [(1, 1), (2, 2), (3, 2), (5, 4), (8, 8), (1023, 512), (1024, 1024)])
    def test_values(self, t, expected):
        assert floor_pow2(t) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            floor_pow2(0)


def reference_seq_value(est):
    """``SequentialHuber.value`` as the property that recomputed it on every read."""
    n = est.count
    if n == 0:
        return 0.0
    if not n & (n - 1) or est.psi_prime_sum == 0.0:
        return est.anchor
    v = est.anchor + est.psi_sum / est.psi_prime_sum
    if v < est.lo:
        return est.lo
    elif v > est.hi:
        return est.hi
    return v


def _t2_stream(seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_t(2, size=300) * rng.uniform(0.1, 5) + rng.uniform(-3, 3)).tolist()


# (beta, stream): the overshoot-clamp inputs of the tests below, and signed
# zeros, among them corrected values equal to lo or hi but for the sign of
# zero, which are not clamped.
EDGE_SEQ_STREAMS = [
    (48855.0, [0.0, 0.0, -97711.0, -97711.0, 0.0, -1.0]),
    (48855.0, [-0.0, 0.0, -97711.0, -97711.0, 0.0, -1.0]),
    (48855.0, [0.0, 0.0, 97711.0, 97711.0, 0.0, 1.0]),
    (1.0, [-0.0, -0.0, -0.0, 0.0, -0.0]),
    (1.0, [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0]),
    (0.5, [-0.0, 0.0, -0.0]),
    (1.0, [-5.0, -0.0, -5.0, -1.0, 0.0, -1.0, -2.0]),
]
# With t(2) streams and the zero-denominator inputs below, plain and numpy floats.
SEQ_STREAMS = [
    *[(beta, _t2_stream(seed)) for seed in range(4) for beta in (0.2, 1.5, 1e6)],
    (1.0, [0.0, 10.0, 50.0]),
    (1.0, list(np.array([0.0, 10.0, 50.0]))),
    *EDGE_SEQ_STREAMS,
]


class TestSequentialHuber:
    @pytest.mark.parametrize("beta, stream", SEQ_STREAMS)
    def test_value_is_the_reference_after_every_update(self, beta, stream):
        s = SequentialHuber(beta)
        assert _same(s.value, reference_seq_value(s))
        for x in stream:
            s.update(x)
            ref = reference_seq_value(s)
            assert type(s.value) is type(ref) and _same(s.value, ref), (s.count, s.value, ref)

    @pytest.mark.parametrize("beta, stream", EDGE_SEQ_STREAMS)
    def test_range_is_min_and_max_with_the_sign_of_zero(self, beta, stream):
        # lo and hi are the first smallest and largest samples, as min and max give them.
        s = SequentialHuber(beta)
        for i, x in enumerate(stream, 1):
            s.update(x)
            assert _same(s.lo, min(stream[:i])) and _same(s.hi, max(stream[:i]))

    def test_initial_state(self):
        s = SequentialHuber(1.0)
        assert s.count == 0
        assert s.value == 0.0
        assert s.buffer.size == 0

    def test_single_sample(self):
        s = SequentialHuber(1.0)
        s.update(5.0)
        assert s.value == huber_estimate([5.0], 1.0) == 5.0

    def test_power_of_two_matches_batch_exactly(self):
        rng = np.random.default_rng(11)
        data = rng.standard_t(3, size=300)
        data[::17] = -40.0
        s = SequentialHuber(1.5)
        for i, x in enumerate(data, 1):
            s.update(float(x))
            if i == floor_pow2(i):
                assert s.value == huber_estimate(data[:i], 1.5)

    def test_alternating_stream_stays_zero(self):
        s = SequentialHuber(0.5)
        for i in range(1, 201):
            s.update(-1.0 if i % 2 else 1.0)
            if i % 2 == 0:
                assert abs(s.value) < 1e-12

    def test_large_beta_reduces_to_running_mean(self):
        rng = np.random.default_rng(13)
        xs = rng.normal(size=100)
        s = SequentialHuber(1e6)
        for i, x in enumerate(xs, 1):
            s.update(float(x))
            assert abs(s.value - xs[:i].mean()) <= 1e-10

    def test_zero_denominator_returns_anchor(self):
        s = SequentialHuber(1.0)
        s.update(0.0)
        s.update(10.0)  # anchor lands mid-gap, both samples clipped
        assert s.psi_prime_sum == 0.0
        anchor = s.anchor
        s.update(50.0)  # still outside the clip window
        assert s.psi_prime_sum == 0.0
        assert s.value == anchor

    def test_zero_denominator_returns_anchor_for_numpy_samples(self):
        # With numpy floats the correction psi_sum / 0 would be inf, not an error.
        s = SequentialHuber(1.0)
        for x in np.array([0.0, 10.0, 50.0]):
            s.update(x)
        assert s.psi_prime_sum == 0.0 and s.psi_sum != 0.0
        assert s.value == s.anchor

    def test_overshoot_clamped_to_largest_sample(self):
        # The anchor of the first four, -48855.5, has no sample within beta;
        # the Newton step from the last two lands at +48854, above every sample.
        s = SequentialHuber(48855.0)
        for x in [0.0, 0.0, -97711.0, -97711.0, 0.0, -1.0]:
            s.update(x)
        assert s.anchor + s.psi_sum / s.psi_prime_sum > s.hi == 0.0
        assert s.value == 0.0

    def test_correction_arithmetic(self):
        # The anchor of the first four is 1.0 with every sample in its window;
        # the fifth adds psi(1.5 - 1.0) = 0.5 to the numerator.
        s = SequentialHuber(1.0)
        for x in [0.0, 2.0, 0.0, 2.0, 1.5]:
            s.update(x)
        assert (s.count, s.anchor, s.psi_sum, s.psi_prime_sum) == (5, 1.0, 0.5, 5.0)
        assert (s.lo, s.hi) == (0.0, 2.0)
        assert s.value == 1.0 + 0.5 / 5.0 == pytest.approx(1.1)

    def test_correction_window_is_closed(self):
        # The third sample sits exactly beta above the anchor 0.0 of the first two.
        s = SequentialHuber(1.0)
        for x in [0.0, 0.0, 1.0]:
            s.update(x)
        assert (s.anchor, s.psi_sum, s.psi_prime_sum) == (0.0, 1.0, 3.0)
        assert s.value == 1.0 / 3.0

    def test_state_invariants(self):
        rng = np.random.default_rng(17)
        s = SequentialHuber(1.0)
        for i, x in enumerate(rng.normal(size=150), 1):
            s.update(float(x))
            assert s.count == i == s.buffer.size
            assert 0.0 <= s.psi_prime_sum <= s.count
            anchor_n = floor_pow2(i)
            assert s.anchor == huber_estimate(s.buffer[:anchor_n], 1.0)

    def test_solver_touches_bounded_by_2n(self):
        rng = np.random.default_rng(19)
        n = 1000
        s = SequentialHuber(2.0)
        for x in rng.normal(size=n):
            s.update(float(x))
        # One batch solve at each power of two: 1 + 2 + ... + 512.
        assert s.solver_samples == 2 * floor_pow2(n) - 1 <= 2 * n

    def test_close_to_batch_on_gaussian_streams(self):
        # Non-anchor staleness stays within a few standard errors.
        rng = np.random.default_rng(23)
        fails = 0
        runs = 60
        for _ in range(runs):
            data = rng.normal(size=2**9)
            s = SequentialHuber(4.0)
            for x in data:
                s.update(float(x))
            t = data.size - 1  # most stale point before the final anchor
            batch = huber_estimate(data[:t], 4.0)
            se = data[:t].std() / math.sqrt(t)
            seq_val_stream = SequentialHuber(4.0)
            for x in data[:t]:
                seq_val_stream.update(float(x))
            if abs(seq_val_stream.value - batch) > 5 * se:
                fails += 1
        assert fails <= 1
