import csv
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from corrupted_bandits import cli, harness
from corrupted_bandits.confidence import HuberParams
from corrupted_bandits.envs import BanditEnv, CorruptedArm, Dirac, Gaussian, make_env
from corrupted_bandits.harness import (
    ExperimentConfig,
    RegretCurve,
    aggregate,
    bound_overlay,
    monte_carlo_regret,
    read_results,
    resolve,
    resolve_p,
    run_episode,
    sweep,
    write_results,
)
from corrupted_bandits.policies import HuberUCB


def tiny_config(**kw):
    base = dict(env="bernoulli", eps_true=0.0, policy="ucb1", horizon=200, reps=4, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def dirac_env():
    return BanditEnv(
        (
            CorruptedArm(Dirac(0.2), Dirac(0.0), 0.0),
            CorruptedArm(Dirac(0.8), Dirac(0.0), 0.0),
        )
    )


class TestRunEpisode:
    def test_single_arm_gets_everything(self):
        env = BanditEnv((CorruptedArm(Gaussian(1.0, 1.0), Dirac(0.0), 0.0),))
        _, _, build = resolve(ExperimentConfig(policy="ucb1", horizon=50), env)
        result = run_episode(env, build, seed=1)
        assert np.all(result.actions == 0)

    def test_seed_determinism(self):
        env = make_env("bernoulli", 0.05)
        _, _, build = resolve(ExperimentConfig(policy="ucb1", horizon=300), env)
        a = run_episode(env, build, seed=9, rep=3)
        b = run_episode(env, build, seed=9, rep=3)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.corrupted, b.corrupted)
        c = run_episode(env, build, seed=9, rep=4)
        assert not np.array_equal(a.corrupted, c.corrupted)

    def test_huber_forced_exploration_first_pulls_distinct(self):
        env = make_env("student", 0.0)
        _, _, build = resolve(
            ExperimentConfig(env="student", policy="huber_ucb", horizon=50, beta_mult=1.0), env
        )
        result = run_episode(env, build, seed=2)
        assert set(result.actions[:3]) == {0, 1, 2}

    def test_huber_on_dirac_arms_locks_optimal(self):
        # Wherever every index is finite, the better constant arm must win;
        # the growing exploration threshold may interleave forced pulls.
        env = dirac_env()
        p = resolve_p("chebyshev", None, 0.05, 0.2, 0.0)
        arm = HuberParams(beta=0.2, sigma=0.05, eps=0.0, p=p, bias=0.0)
        policy = HuberUCB([arm, arm])
        rng = np.random.Generator(np.random.Philox([3, 0]))
        finite_steps = 0
        for step in range(400):
            indices = policy._index_pass(policy.t + 1)
            arm = policy.select_arm(rng)
            if np.all(np.isfinite(indices)):
                finite_steps += 1
                assert arm == 1
            reward, _ = env.arms[arm].sample(rng)
            policy.update(arm, reward)
        assert finite_steps > 200

    def test_corrupted_flags_recorded(self):
        env = make_env("bernoulli", 0.2)
        _, _, build = resolve(ExperimentConfig(policy="ucb1", horizon=2000), env)
        result = run_episode(env, build, seed=4)
        assert 0.12 < result.corrupted.mean() < 0.28


class TestMonteCarlo:
    def test_single_rep_matches_episode(self):
        cfg = tiny_config(reps=1)
        env = make_env(cfg.env, cfg.eps_true)
        curve = monte_carlo_regret(cfg)
        _, _, build = resolve(cfg, env)
        episode = run_episode(env, build, seed=cfg.seed, rep=0)
        manual = np.cumsum(env.gaps[episode.actions])
        assert np.allclose(curve.mean, manual)

    def test_parallel_identical_to_serial(self):
        cfg = tiny_config(reps=6)
        serial = monte_carlo_regret(cfg, n_jobs=1)
        parallel = monte_carlo_regret(cfg, n_jobs=2)
        assert np.array_equal(serial.mean, parallel.mean)
        assert np.array_equal(serial.stderr, parallel.stderr)

    @pytest.mark.parametrize(
        "n_jobs, reps, cores, workers",
        [(100_000, 2, 2, 2), (100_000, 6, 64, 6), (3, 6, 64, 3), (4, 6, 2, 2), (0, 6, 4, 4),
         (-1, 3, 64, 3)],
    )
    def test_workers_capped_at_reps_and_cores(self, monkeypatch, n_jobs, reps, cores, workers):
        seen = self._serial_pool(monkeypatch, cores)
        cfg = tiny_config(reps=reps, horizon=30)
        curve = monte_carlo_regret(cfg, n_jobs=n_jobs)
        assert seen == [workers]
        assert np.array_equal(curve.mean, monte_carlo_regret(cfg, n_jobs=1).mean)

    def test_cli_jobs_capped_at_reps(self, monkeypatch, tmp_path):
        seen = self._serial_pool(monkeypatch, 2)
        out = tmp_path / "res.csv"
        argv = ["run", "--policy", "ucb1", "--horizon", "20", "--reps", "2",
                "--jobs", "100000", "--out", str(out)]
        assert cli.main(argv) == 0
        assert seen == [2]

    @staticmethod
    def _serial_pool(monkeypatch, cores):
        """Replace the process pool by one that records ``max_workers`` and maps in-process."""
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        return seen

    def test_curve_monotone(self):
        curve = monte_carlo_regret(tiny_config(eps_true=0.05, reps=3))
        assert np.all(np.diff(curve.mean) >= -1e-12)

    def test_final_equals_decomposition_exactly(self):
        curve = monte_carlo_regret(tiny_config(reps=5))
        assert curve.final == float(curve.gaps @ curve.mean_pulls)

    def test_trajectory_equivalence_per_run(self):
        env = make_env("bernoulli", 0.05)
        _, _, build = resolve(ExperimentConfig(policy="ucb1", horizon=500), env)
        episode = run_episode(env, build, seed=11)
        counts = np.bincount(episode.actions, minlength=env.k)
        assert np.cumsum(env.gaps[episode.actions])[-1] == pytest.approx(
            float(env.gaps @ counts), rel=1e-12
        )

    def test_stderr_shrinks_with_reps(self):
        small = monte_carlo_regret(tiny_config(policy="exp3", reps=10))
        large = monte_carlo_regret(tiny_config(policy="exp3", reps=40))
        ratio = large.stderr[-1] / small.stderr[-1]
        assert 0.3 < ratio < 0.75

    def test_growth_ratio(self):
        curve = RegretCurve(
            label="x",
            steps=np.arange(1, 5),
            mean=np.array([1.0, 2.0, 3.0, 4.0]),
            stderr=np.zeros(4),
            mean_pulls=np.zeros(2),
            gaps=np.zeros(2),
            reps=1,
        )
        assert curve.growth_ratio() == 2.0


def reference_aggregate(actions_by_rep, gaps):
    """Reference aggregation: a (reps, horizon, k) count cube and one regret sum per step."""
    reps, horizon, k = len(actions_by_rep), actions_by_rep[0].size, gaps.size
    cube = np.zeros((reps, horizon, k), dtype=np.float64)
    eye = np.eye(k)
    for m, actions in enumerate(actions_by_rep):
        np.cumsum(eye[actions], axis=0, out=cube[m])
    mean_counts = cube.mean(axis=0)
    mean = np.array([float(gaps @ mean_counts[t]) for t in range(horizon)])
    per_rep = cube @ gaps
    if reps > 1:
        stderr = per_rep.std(axis=0, ddof=1) / np.sqrt(reps)
    else:
        stderr = np.zeros(horizon)
    return mean, stderr, mean_counts[-1]


class TestAggregate:
    def test_bit_identical_to_count_cube(self):
        rng = np.random.Generator(np.random.Philox([21]))
        for _ in range(40):
            k = int(rng.integers(2, 9))
            reps = int(rng.integers(1, 101))
            horizon = int(rng.integers(1, 3001))
            gaps = rng.uniform(0.0, 2.0, size=k)
            gaps[rng.integers(k)] = 0.0
            probs = rng.dirichlet(np.ones(k))
            actions = [rng.choice(k, size=horizon, p=probs) for _ in range(reps)]
            got = aggregate(actions, gaps)
            want = reference_aggregate(actions, gaps)
            for name, a, b in zip(("mean", "stderr", "mean_pulls"), got, want):
                assert np.array_equal(a, b), (name, k, reps, horizon)

    @pytest.mark.parametrize("k", [3, 8])
    def test_bit_identical_across_row_blocks(self, k):
        # 70,000 steps span many of aggregate's row blocks, with a partial last one
        rng = np.random.Generator(np.random.Philox([22, k]))
        gaps = rng.uniform(0.0, 2.0, size=k)
        gaps[0] = 0.0
        actions = [rng.choice(k, size=70_000, p=rng.dirichlet(np.ones(k))) for _ in range(5)]
        got = aggregate(actions, gaps)
        want = reference_aggregate(actions, gaps)
        for name, a, b in zip(("mean", "stderr", "mean_pulls"), got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_action_outside_the_arms_rejected(self, bad):
        # A negative action would otherwise count as an arm from the end.
        actions = [np.array([0, 1, 2, 1]), np.array([0, bad, 2, 1])]
        with pytest.raises(ValueError, match=r"replication 1 has an action outside \[0, 3\)"):
            aggregate(actions, np.array([0.5, 0.25, 0.0]))


class TestSweep:
    def test_single_value_equals_plain_run(self):
        cfg = tiny_config(sweep_axis="beta_mult", sweep_values=[4.0], policy="huber_ucb")
        curves = sweep(cfg)
        plain = monte_carlo_regret(tiny_config(policy="huber_ucb", beta_mult=4.0))
        assert np.array_equal(curves[0][1].mean, plain.mean)

    def test_eps_assumed_axis(self):
        cfg = tiny_config(
            policy="huber_ucb",
            eps_true=0.02,
            sweep_axis="eps_assumed",
            sweep_values=[0.01, 0.05],
            reps=2,
        )
        curves = sweep(cfg)
        assert len(curves) == 2
        assert curves[0][1].label != curves[1][1].label

    def test_requires_axis(self):
        with pytest.raises(ValueError):
            sweep(tiny_config())

    def test_eps_true_axis_tracks_assumed_default(self):
        # with eps_assumed unset, every sweep point assumes its own true rate
        cfg = tiny_config(
            policy="huber_ucb",
            sweep_axis="eps_true",
            sweep_values=[0.0, 0.05],
            reps=2,
            horizon=100,
        )
        curves = sweep(cfg)
        assert len(curves) == 2


class TestStreamingPolicySpeed:
    def test_streaming_policy_faster_informational(self):
        # The streaming-estimator policy avoids the per-pull batch solve; the
        # coarse machine-dependent target is ~5x at this horizon, reported
        # here informationally (the hard estimator-level gate lives in the
        # acceptance suite).
        import time

        env = make_env("bernoulli", 0.05)
        horizon = 2**14
        times = {}
        for policy in ("huber_ucb", "seq_huber_ucb"):
            config = ExperimentConfig(env="bernoulli", eps_true=0.05, policy=policy,
                                      horizon=horizon, eps_assumed=0.05, beta_mult=0.1)
            _, _, build = resolve(config, env)
            start = time.perf_counter()
            run_episode(env, build, seed=77)
            times[policy] = time.perf_counter() - start
        ratio = times["huber_ucb"] / times["seq_huber_ucb"]
        print(
            f"\n[info] n=2^14 single-core episode: huber_ucb {times['huber_ucb']:.2f}s, "
            f"seq_huber_ucb {times['seq_huber_ucb']:.2f}s ({ratio:.1f}x)"
        )
        assert ratio > 1.0


class TestConfig:
    def test_preset_defaults(self):
        cfg = ExperimentConfig(env="bernoulli", eps_true=0.03, policy="huber_ucb").resolved()
        assert cfg.beta_mult == 0.1
        assert cfg.eps_assumed == 0.03
        assert cfg.bias_rule == "zero"
        assert cfg.exp3_clip == (0.0, 1.0)
        pareto = ExperimentConfig(env="pareto", policy="huber_ucb").resolved()
        assert pareto.beta_mult == 1.5
        assert pareto.bias_rule == "half_second_moment"
        assert pareto.exp3_clip == (-10.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(horizon=0)
        with pytest.raises(ValueError):
            ExperimentConfig(eps_true=0.6)
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_axis="gamma")

    @pytest.mark.parametrize("value", [20.5, 2.0, "3"])
    @pytest.mark.parametrize("name", ["horizon", "reps", "seed"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ExperimentConfig(**{name: value})
        assert getattr(ExperimentConfig(**{name: np.int64(3)}), name) == 3

    def test_dict_roundtrip(self):
        cfg = tiny_config(exp3_clip=(0.0, 1.0))
        again = ExperimentConfig(**json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg


class TestOverlay:
    def test_overlay_shape_and_monotonicity(self):
        cfg = ExperimentConfig(
            env="pareto", eps_true=0.0, policy="huber_ucb", horizon=300, reps=1, beta_mult=4.0
        )
        overlay = bound_overlay(cfg)
        assert overlay.shape == (300,)
        assert np.all(np.isfinite(overlay))
        assert np.all(np.diff(overlay) >= -1e-9)

    def test_overlay_inf_when_bound_inapplicable(self):
        cfg = ExperimentConfig(env="bernoulli", eps_true=0.05, policy="huber_ucb", horizon=100, reps=1)
        overlay = bound_overlay(cfg)
        assert np.all(np.isinf(overlay))

    def test_overlay_only_for_robust_policies(self):
        with pytest.raises(ValueError):
            bound_overlay(tiny_config(policy="ucb1"))


class TestResultsIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = tiny_config(reps=3)
        curve = monte_carlo_regret(cfg)
        path = tmp_path / "out.csv"
        write_results([curve], path, config=cfg)
        back = read_results(path)
        assert np.array_equal(back["ucb1"]["mean_regret"], curve.mean)
        assert np.array_equal(back["ucb1"]["stderr"], curve.stderr)

    def test_metadata_sidecar(self, tmp_path):
        cfg = tiny_config(seed=1234)
        curve = monte_carlo_regret(cfg)
        path = tmp_path / "out.csv"
        write_results([curve], path, config=cfg)
        meta = json.loads((tmp_path / "out.meta.json").read_text())
        assert meta["base_seed"] == 1234
        assert meta["rng_contract"] == harness.RNG_CONTRACT == 1
        assert meta["config"]["horizon"] == cfg.horizon
        assert meta["curves"][0]["label"] == "ucb1"

    def test_overlay_column_iff_requested(self, tmp_path):
        cfg = tiny_config()
        curve = monte_carlo_regret(cfg)
        bare = tmp_path / "bare.csv"
        write_results([curve], bare, config=cfg)
        assert "bound_overlay" not in bare.read_text().splitlines()[0]
        decorated = tmp_path / "dec.csv"
        write_results(
            [curve], decorated, overlays={"ucb1": np.ones(cfg.horizon)}, config=cfg
        )
        header = decorated.read_text().splitlines()[0]
        assert header.split(",") == ["step", "policy", "mean_regret", "stderr", "bound_overlay"]

    def test_overlay_column_read_back(self, tmp_path):
        # Each curve's overlay comes back bit for bit, inf included; a curve
        # written without one gets no bound_overlay entry.
        cfg = tiny_config(reps=2)
        curve = monte_carlo_regret(cfg)
        other = monte_carlo_regret(tiny_config(reps=2, seed=6))
        other.label = "other"
        overlay = np.linspace(0.1, 7.0, cfg.horizon) ** 1.5
        overlay[-1] = np.inf
        path = tmp_path / "out.csv"
        write_results([curve, other], path, overlays={"ucb1": overlay}, config=cfg)
        back = read_results(path)
        assert np.array_equal(back["ucb1"]["bound_overlay"], overlay)
        assert np.array_equal(back["ucb1"]["mean_regret"], curve.mean)
        assert "bound_overlay" not in back["other"]


def reference_write_rows(curves, path, overlays=None):
    """The CSV body as a per-row ``csv.writer`` loop writes it (no sidecar)."""
    overlays = overlays or {}
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["step", "policy", "mean_regret", "stderr"]
        if overlays:
            header.append("bound_overlay")
        writer.writerow(header)
        for curve in curves:
            overlay = overlays.get(curve.label)
            for i, step in enumerate(curve.steps):
                row = [int(step), curve.label, fmt(curve.mean[i]), fmt(curve.stderr[i])]
                if overlays:
                    row.append(fmt(overlay[i]) if overlay is not None else "")
                writer.writerow(row)


def reference_read(path):
    """The CSV reparsed through ``csv.DictReader`` into lists, then arrays."""
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            entry = out.setdefault(
                row["policy"], {"step": [], "mean_regret": [], "stderr": [], "bound_overlay": []}
            )
            entry["step"].append(int(row["step"]))
            entry["mean_regret"].append(float(row["mean_regret"]))
            entry["stderr"].append(float(row["stderr"]))
            if row.get("bound_overlay"):
                entry["bound_overlay"].append(float(row["bound_overlay"]))
    return {
        label: {key: np.asarray(vals) for key, vals in entry.items() if vals}
        for label, entry in out.items()
    }


def random_curve(label, horizon, rng):
    """A curve of awkward floats: 17-digit values, -0.0, inf and nan."""
    mean = np.cumsum(rng.exponential(size=horizon)) * 1e-3
    stderr = rng.standard_t(1.5, size=horizon) ** 2
    stderr[:3] = (-0.0, np.inf, np.nan)
    return RegretCurve(label=label, steps=np.arange(1, horizon + 1), mean=mean, stderr=stderr,
                       mean_pulls=np.zeros(3), gaps=np.zeros(3), reps=2)


class TestResultsBytes:
    # 2500 rows cross two of the writer's row blocks and end in a partial one.
    HORIZON = 2500

    @pytest.fixture
    def curves(self):
        rng = np.random.Generator(np.random.Philox([23]))
        return [random_curve("a,b", self.HORIZON, rng), random_curve('q"x', self.HORIZON, rng)]

    @pytest.mark.parametrize("with_overlay", [True, False])
    def test_bytes_and_reparse_match_row_loop(self, tmp_path, curves, with_overlay):
        overlays = None
        if with_overlay:
            overlay = np.linspace(0.5, 90.0, self.HORIZON) ** 1.7
            overlay[-2:] = np.inf
            overlays = {"a,b": overlay}  # the second curve has none
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_results(curves, got, overlays=overlays)
        reference_write_rows(curves, want, overlays=overlays)
        assert got.read_bytes() == want.read_bytes()
        back, expected = read_results(got), reference_read(want)
        assert list(back) == list(expected) == ["a,b", 'q"x']
        for label, columns in expected.items():
            assert list(back[label]) == list(columns)
            for key, values in columns.items():
                assert back[label][key].dtype == values.dtype, (label, key)
                assert np.array_equal(back[label][key], values, equal_nan=True), (label, key)

    @pytest.mark.parametrize("length", [HORIZON - 1, HORIZON + 1])
    def test_overlay_of_another_length_rejected(self, tmp_path, curves, length):
        with pytest.raises(ValueError, match="one value per step"):
            write_results(curves, tmp_path / "out.csv", overlays={"a,b": np.ones(length)})


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak of memory it held above its start, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestWorkingMemory:
    """Peak memory after the episodes, in horizon-length float64 columns."""

    HORIZON = 200_000
    COLUMN = HORIZON * 8

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """A 2-rep, 3-arm run at HORIZON: its actions, config, curve, overlay and CSV."""
        rng = np.random.Generator(np.random.Philox([24]))
        gaps = np.array([0.5, 0.25, 0.0])
        actions = [rng.choice(3, size=self.HORIZON, p=[0.1, 0.3, 0.6]) for _ in range(2)]
        config = ExperimentConfig(env="weibull", policy="seq_huber_ucb", horizon=self.HORIZON,
                                  reps=2)
        mean, stderr, pulls = aggregate(actions, gaps)
        curve = RegretCurve(label="seq_huber_ucb", steps=np.arange(1, self.HORIZON + 1),
                            mean=mean, stderr=stderr, mean_pulls=pulls, gaps=gaps, reps=2)
        overlay = bound_overlay(config)
        path = tmp_path_factory.mktemp("memory") / "run.csv"
        write_results([curve], path, overlays={curve.label: overlay})
        return SimpleNamespace(actions=actions, gaps=gaps, config=config, curve=curve,
                               overlay=overlay, path=path)

    def test_aggregate(self, run):
        _, peak = traced_peak(aggregate, run.actions, run.gaps)
        assert peak <= 7 * self.COLUMN

    def test_bound_overlay(self, run):
        overlay, peak = traced_peak(bound_overlay, run.config)
        assert np.all(np.isfinite(overlay))
        assert peak <= 7 * self.COLUMN

    def test_read_results(self, run):
        back, peak = traced_peak(read_results, run.path)
        assert len(back["seq_huber_ucb"]) == 4
        assert peak <= 6 * self.COLUMN

    @pytest.mark.parametrize("horizon", [1000, 50_000])
    def test_write_results_is_flat_in_the_horizon(self, run, tmp_path, horizon):
        curve, rows = run.curve, slice(0, horizon)
        short = RegretCurve(label=curve.label, steps=curve.steps[rows], mean=curve.mean[rows],
                            stderr=curve.stderr[rows], mean_pulls=curve.mean_pulls,
                            gaps=curve.gaps, reps=2)
        _, peak = traced_peak(write_results, [short], tmp_path / "out.csv",
                              overlays={curve.label: run.overlay[rows]})
        assert peak <= 2**20
