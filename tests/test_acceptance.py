"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE`` line with the measured quantities (run
pytest with ``-s`` to stream them).  The expensive Monte-Carlo batteries are
session fixtures shared across the per-clause tests.
"""

import math
import time

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from corrupted_bandits.confidence import (
    HuberParams,
    concentration_radius,
    seq_concentration_radius,
)
from corrupted_bandits.estimators import (
    SequentialHuber,
    default_root_tol,
    floor_pow2,
    huber_estimate,
)
from corrupted_bandits.harness import ExperimentConfig, monte_carlo_regret, sweep
from corrupted_bandits.theory import (
    GapProfile,
    alpha_for_gap_ratio,
    corrupted_bernoulli_kl,
    corrupted_bernoulli_kl_bounds,
    corrupted_bernoulli_pair,
    discrete_kl,
    max_pulls_huber_ucb,
    max_pulls_huber_ucb_simplified,
)

N_JOBS = 2
HORIZON = 5000
REPS = 100
COMPARED_POLICIES = (
    "huber_ucb",
    "seq_huber_ucb",
    "robust_ucb_catoni",
    "robust_ucb_mom",
    "exp3",
)
BASELINES = ("robust_ucb_catoni", "robust_ucb_mom", "exp3")
ROBUST = ("huber_ucb", "seq_huber_ucb")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


def rng_for(*key):
    return np.random.Generator(np.random.Philox(list(key)))


# ---------------------------------------------------------------------------
# Criterion 1: Huber root contract and grid-search oracle agreement.
# ---------------------------------------------------------------------------


def _random_dataset(rng, n):
    mu = float(rng.uniform(-5, 5))
    scale = float(rng.uniform(0.2, 3.0))
    x = rng.normal(mu, scale, size=n)
    style = rng.random()
    if style < 0.33 and n >= 4:
        m = max(1, n // 10)
        x[:m] = mu + scale * (1.0 - rng.random(m)) ** (-1.0 / 1.5)  # heavy tail
    elif style < 0.66 and n >= 4:
        m = max(1, n // 12)
        x[:m] = mu + float(rng.choice([-45.0, 45.0]))  # point masses
    return x


def _grid_oracle(x, beta):
    x = np.asarray(x, dtype=float)

    def loss(thetas):
        r = np.abs(x[:, None] - thetas[None, :])
        return np.where(r <= beta, 0.5 * r * r, beta * r - 0.5 * beta * beta).sum(axis=0)

    grid = np.linspace(x.min(), x.max(), 20001)
    step = grid[1] - grid[0] if grid.size > 1 else 1.0
    best = grid[np.argmin(loss(grid))]
    refined = np.linspace(best - 2 * step, best + 2 * step, 20001)
    return float(refined[np.argmin(loss(refined))])


def test_criterion_1_huber_root_contract():
    start = time.perf_counter()
    rng = rng_for(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(10 ** rng.uniform(math.log10(2), 4))
        x = _random_dataset(rng, n)
        beta = float(rng.uniform(0.05, 20.0))
        theta = huber_estimate(x, beta)
        resid = abs(float(np.clip(x - theta, -beta, beta).sum()))
        tol = default_root_tol(n, beta)
        worst = max(worst, resid / tol)
        assert resid <= tol
        assert x.min() <= theta <= x.max()

    max_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        x = _random_dataset(rng, n)
        beta = float(rng.uniform(0.1, 10.0))
        est = huber_estimate(x, beta)
        oracle = _grid_oracle(x, beta)
        max_gap = max(max_gap, abs(est - oracle))
    elapsed = time.perf_counter() - start
    ok = max_gap < 1e-5 and elapsed < 30
    report(
        "1 huber-root-contract",
        ok,
        f"worst residual {worst:.2e} of tolerance; oracle gap {max_gap:.2e}; {elapsed:.1f}s",
    )
    assert max_gap < 1e-5
    assert elapsed < 30


# ---------------------------------------------------------------------------
# Criterion 2: streaming estimator exactness at anchors and closeness between.
# ---------------------------------------------------------------------------


def test_criterion_2_seqhub_exactness_and_closeness():
    start = time.perf_counter()
    beta = 2.0
    for run in range(100):
        rng = rng_for(2002, run)
        data = rng.standard_t(3, size=256)
        data[rng.random(256) < 0.05] = 30.0
        seq = SequentialHuber(beta)
        for i, x in enumerate(data, 1):
            seq.update(float(x))
            if i == floor_pow2(i):
                assert seq.value == huber_estimate(data[:i], beta)

    runs, fails = 500, 0
    n = 2**12
    for run in range(runs):
        rng = rng_for(2003, run)
        data = rng.normal(size=n)
        seq = SequentialHuber(4.0)
        for x in data[:-1]:
            seq.update(float(x))
        stale_value = seq.value  # t = 4095: most stale point in the stream
        batch = huber_estimate(data[:-1], 4.0)
        se = data[:-1].std() / math.sqrt(n - 1)
        if abs(stale_value - batch) > 5 * se:
            fails += 1
        seq.update(float(data[-1]))
        assert seq.value == huber_estimate(data, 4.0)  # anchor at 4096
    elapsed = time.perf_counter() - start
    frac = fails / runs
    ok = frac <= 0.01 and elapsed < 60
    report(
        "2 seqhub-exactness",
        ok,
        f"anchor equality exact; staleness beyond 5 SE in {100 * frac:.1f}% of runs; {elapsed:.1f}s",
    )
    assert frac <= 0.01
    assert elapsed < 60


# ---------------------------------------------------------------------------
# Criterion 3: empirical coverage of the deviation radii.
# ---------------------------------------------------------------------------


def _gaussian_huber_functional(beta):
    norm = scipy.stats.norm()

    def expected_influence(theta):
        lo, hi = -beta - (-theta), beta - (-theta)  # window for Z = Y - theta
        mean_part = -theta * (norm.cdf(hi) - norm.cdf(lo)) - (
            norm.pdf(hi) - norm.pdf(lo)
        )
        return mean_part + beta * ((1 - norm.cdf(hi)) - norm.cdf(lo))

    return scipy.optimize.brentq(expected_influence, -1.0, 1.0, xtol=1e-14)


def test_criterion_3_concentration_coverage():
    start = time.perf_counter()
    eps, n, delta, beta = 0.05, 1000, 0.01, 4.0
    p_exact = math.erf(2.0 / math.sqrt(2.0))
    cfg = HuberParams(beta=beta, sigma=1.0, eps=eps, p=p_exact, bias=0.0)
    hub_p = _gaussian_huber_functional(beta)
    assert abs(hub_p) < 1e-10  # symmetric inlier

    radius = concentration_radius(n, delta, cfg)
    seq_radius = seq_concentration_radius(n, delta, cfg)
    assert math.isfinite(radius) and math.isfinite(seq_radius)

    reps = 2000
    batch_fails = seq_fails = 0
    for rep in range(reps):
        rng = rng_for(3004, rep)
        x = rng.normal(size=n)
        x[rng.random(n) < eps] = 50.0
        if abs(huber_estimate(x, beta) - hub_p) > radius:
            batch_fails += 1
        seq = SequentialHuber(beta)
        for value in x:
            seq.update(float(value))
        if abs(seq.value - hub_p) > seq_radius:
            seq_fails += 1
    elapsed = time.perf_counter() - start
    batch_frac, seq_frac = batch_fails / reps, seq_fails / reps
    ok = batch_frac <= 5 * delta and seq_frac <= 14 * delta and elapsed < 300
    report(
        "3 concentration-coverage",
        ok,
        f"batch miss rate {batch_frac:.4f} (<= {5 * delta}); "
        f"streaming miss rate {seq_frac:.4f} (<= {14 * delta}); {elapsed:.1f}s",
    )
    assert batch_frac <= 5 * delta
    assert seq_frac <= 14 * delta
    assert elapsed < 300


# ---------------------------------------------------------------------------
# Criterion 4: exact KL versus numeric oracle and bound dominance.
# ---------------------------------------------------------------------------


def test_criterion_4_kl_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for alpha in np.arange(0.05, 0.451, 0.05):
        for eps in (0.0, 0.05, 0.1, 0.15, 0.2):
            pair = corrupted_bernoulli_pair(float(alpha), eps)
            numeric = discrete_kl(
                {0: 1 - pair.q0, 1: pair.q0}, {0: 1 - pair.q1, 1: pair.q1}
            )
            worst = max(worst, abs(corrupted_bernoulli_kl(float(alpha), eps) - numeric))
    assert worst <= 1e-12

    sigma, eps = 1.0, 0.2
    for gap in np.logspace(-2, math.log10(3.9), 60):
        uniform, high, _ = corrupted_bernoulli_kl_bounds(float(gap), sigma, eps)
        exact = corrupted_bernoulli_kl(alpha_for_gap_ratio(float(gap), sigma), eps)
        assert exact <= uniform + 1e-12
        if high is not None:
            assert exact <= high + 1e-12
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    report(
        "4 kl-oracle-equivalence",
        ok,
        f"max |exact - numeric| = {worst:.2e}; bounds dominate on the comparison grid; {elapsed:.2f}s",
    )
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 5: qualitative reproduction of the corrupted-regret comparison.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def figure_battery():
    settings = [
        ("bernoulli", 0.0),
        ("bernoulli", 0.03),
        ("bernoulli", 0.05),
        ("student", 0.05),
        ("pareto", 0.05),
    ]
    curves: dict = {}
    start = time.perf_counter()
    for env, eps in settings:
        for policy in COMPARED_POLICIES:
            cfg = ExperimentConfig(
                env=env,
                eps_true=eps,
                policy=policy,
                horizon=HORIZON,
                reps=REPS,
                seed=20240,
            )
            curves[(env, eps, policy)] = monte_carlo_regret(cfg, n_jobs=N_JOBS)
    elapsed = time.perf_counter() - start
    print(f"\n[battery] {len(settings) * len(COMPARED_POLICIES)} configs, {elapsed:.0f}s")
    for env, eps in settings:
        row = "  ".join(
            f"{p}={curves[(env, eps, p)].final:8.1f}" for p in COMPARED_POLICIES
        )
        print(f"[battery] {env:9s} eps={eps:<5g} {row}")
    return curves, elapsed


def _finals(curves, env, eps):
    return {p: curves[(env, eps, p)].final for p in COMPARED_POLICIES}


def test_criterion_5_curves_monotone_and_runtime(figure_battery):
    curves, elapsed = figure_battery
    for curve in curves.values():
        assert np.all(np.diff(curve.mean) >= -1e-9)
    ok = elapsed < 600
    report(
        "5.0 battery-runtime",
        ok,
        f"{len(curves)} Monte-Carlo configs in {elapsed:.0f}s (< 600s); curves monotone",
    )
    assert elapsed < 600


def test_criterion_5_uncorrupted_parity(figure_battery):
    curves, _ = figure_battery
    finals = _finals(curves, "bernoulli", 0.0)
    spread = max(finals.values()) / min(finals.values())
    ok = spread <= 3.0
    report(
        "5.1 bernoulli-eps0-parity",
        ok,
        f"final-regret spread {spread:.2f}x (<= 3x required); finals={ {k: round(v, 1) for k, v in finals.items()} }",
    )
    assert spread <= 3.0


@pytest.mark.parametrize("env", ["bernoulli", "student", "pareto"])
def test_criterion_5_robust_domination(figure_battery, env):
    curves, _ = figure_battery
    finals = _finals(curves, env, 0.05)
    failures = []
    for robust in ROBUST:
        for baseline in BASELINES:
            if not finals[robust] < 0.5 * finals[baseline]:
                failures.append(
                    f"{robust}({finals[robust]:.0f}) !< 0.5*{baseline}({finals[baseline]:.0f})"
                )
    ok = not failures
    report(
        f"5.2 {env}-eps05-domination",
        ok,
        "robust policies < 0.5x every baseline" if ok else "; ".join(failures),
    )
    assert not failures


@pytest.mark.parametrize("env", ["bernoulli", "student", "pareto"])
def test_criterion_5_baseline_linearity(figure_battery, env):
    curves, _ = figure_battery
    ratios = {b: curves[(env, 0.05, b)].growth_ratio() for b in BASELINES}
    bad = {b: round(r, 2) for b, r in ratios.items() if not 1.8 <= r <= 2.2}
    ok = not bad
    report(
        f"5.3 {env}-eps05-baseline-linearity",
        ok,
        f"growth ratios { {b: round(r, 2) for b, r in ratios.items()} } (need [1.8, 2.2])",
    )
    assert not bad


@pytest.mark.parametrize("env", ["bernoulli", "student", "pareto"])
def test_criterion_5_robust_sublinearity(figure_battery, env):
    curves, _ = figure_battery
    ratio = curves[(env, 0.05, "huber_ucb")].growth_ratio()
    ok = ratio < 1.6
    report(
        f"5.4 {env}-eps05-huber-sublinear",
        ok,
        f"huber_ucb growth ratio {ratio:.2f} (< 1.6 required)",
    )
    assert ratio < 1.6


# ---------------------------------------------------------------------------
# Criterion 6: threshold-multiplier ablation on the uncorrupted skewed preset.
# ---------------------------------------------------------------------------


def test_criterion_6_beta_sweep():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        env="weibull",
        eps_true=0.0,
        policy="huber_ucb",
        horizon=HORIZON,
        reps=REPS,
        seed=606,
        sweep_axis="beta_mult",
        sweep_values=[0.5, 1.0, 2.0, 4.0, 5.0, 8.0, 16.0],
    )
    family = sweep(cfg, n_jobs=N_JOBS)
    finals = {value: curve.final for value, curve in family}
    best = min(finals, key=finals.get)
    elapsed = time.perf_counter() - start
    ok = 2.0 <= best <= 8.0 and elapsed < 600
    report(
        "6 beta-sweep",
        ok,
        f"finals { {v: round(f, 1) for v, f in finals.items()} }; "
        f"minimum at multiplier {best:g}; {elapsed:.0f}s",
    )
    assert 2.0 <= best <= 8.0
    assert elapsed < 600


# ---------------------------------------------------------------------------
# Criterion 7: bound dominance and O(log n) slope.
# ---------------------------------------------------------------------------


def test_criterion_7_bound_sanity():
    checked = 0
    for eps in (0.0, 0.01, 0.02, 0.03, 0.04):
        for p in (0.75, 0.85, 0.95, 1.0):
            for sigma in (0.5, 1.0, 2.0):
                cfg = HuberParams(beta=4 * sigma, sigma=sigma, eps=eps, p=p)
                for mult in (0.5, 1.0, 2.0, 4.0, 10.0, 40.0, 200.0, 1000.0):
                    delta = mult * sigma
                    if delta * (p - eps) - 32 * sigma * eps <= 0:
                        continue
                    gap = GapProfile(delta, sigma, eps)
                    for n in (10, 1000, 10**6):
                        sharp = max_pulls_huber_ucb(n, gap, cfg)
                        loose = max_pulls_huber_ucb_simplified(n, gap, cfg)
                        assert sharp <= loose * (1 + 1e-12), (eps, p, sigma, mult, n)
                        checked += 1
    assert checked >= 1000

    # affine in ln n within each branch
    cfg = HuberParams(beta=4.0, sigma=1.0, eps=0.02, p=0.9)
    gap = GapProfile(2.0, 1.0, 0.02)
    ns = (100, 1000, 10_000, 100_000)
    values = [max_pulls_huber_ucb(n, gap, cfg) for n in ns]
    slopes = [
        (values[i + 1] - values[i]) / (math.log(ns[i + 1]) - math.log(ns[i]))
        for i in range(3)
    ]
    slope_dev = max(slopes) - min(slopes)
    ok = slope_dev <= 1e-9
    report(
        "7 bound-sanity",
        ok,
        f"{checked} grid points dominated; ln-n slope deviation {slope_dev:.2e}",
    )
    assert slope_dev <= 1e-9


# ---------------------------------------------------------------------------
# Criterion 8: streaming speedup over per-step batch recomputation.
# ---------------------------------------------------------------------------


def test_criterion_8_streaming_speedup():
    n = 2**16
    rng = rng_for(808)
    data = rng.normal(size=n)
    data[rng.random(n) < 0.05] = 50.0
    beta = 4.0

    start = time.perf_counter()
    seq = SequentialHuber(beta, capacity=n)
    for x in data:
        seq.update(float(x))
        _ = seq.value
    stream_time = time.perf_counter() - start

    start = time.perf_counter()
    for t in range(1, n + 1):
        huber_estimate(data[:t], beta)
    batch_time = time.perf_counter() - start

    speedup = batch_time / stream_time
    ok = speedup >= 10.0
    report(
        "8 streaming-speedup",
        ok,
        f"streaming {stream_time:.2f}s vs per-step batch {batch_time:.2f}s "
        f"({speedup:.1f}x, >= 10x required)",
    )
    assert speedup >= 10.0
