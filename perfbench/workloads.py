"""The benchmark's workloads and the output checks applied to every config.

Each workload is a scaled-down copy of acceptance-suite traffic, driven only
through the package's public entry points: ``harness.monte_carlo_regret``,
``harness.sweep`` and ``cli.main``.  Entry points are looked up on their
modules at call time, so spans installed by ``spans.instrument`` are seen.

Importing this module imports the package; the caller puts ``src`` on the
path first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corrupted_bandits import cli, envs, harness
from corrupted_bandits.harness import ExperimentConfig

BATTERY_SETTINGS = (
    ("bernoulli", 0.0),
    ("bernoulli", 0.03),
    ("bernoulli", 0.05),
    ("student", 0.05),
    ("pareto", 0.05),
)
COMPARED_POLICIES = ("huber_ucb", "seq_huber_ucb", "robust_ucb_catoni", "robust_ucb_mom", "exp3")
BETA_MULTS = (0.5, 1.0, 2.0, 4.0, 5.0, 8.0, 16.0)
# Criterion 5's own monotonicity tolerance.
MONOTONE_TOL = 1e-9
# Horizon of the untimed pass that fills lazy state before timing.
WARMUP_HORIZON = 50


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int
    reps: int
    n_jobs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("battery", horizon=5000, reps=2, n_jobs=2),
        Workload("beta-sweep", horizon=5000, reps=1, n_jobs=1),
        Workload("long-horizon", horizon=50000, reps=2, n_jobs=1),
    )
}


@dataclass
class Outcome:
    """One config: its curve (or the error it raised) and what it wrote."""

    label: str
    horizon: int
    curve: harness.RegretCurve | None = None
    error: str | None = None
    written: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str | None:
        if self.curve is None:
            return None
        data = np.ascontiguousarray(self.curve.mean, dtype="<f8").tobytes()
        return hashlib.sha256(data).hexdigest()


def check(outcome: Outcome) -> list[str]:
    """Checks that hold for any seed; an empty list means the config passed."""
    if outcome.error is not None:
        return [outcome.error.strip().splitlines()[-1]]
    curve = outcome.curve
    problems = []
    if curve.mean.shape != (outcome.horizon,):
        problems.append(f"curve has shape {curve.mean.shape}, expected ({outcome.horizon},)")
    elif not np.all(np.isfinite(curve.mean)):
        problems.append("curve is not finite")
    elif not np.all(np.diff(curve.mean) >= -MONOTONE_TOL):
        problems.append("curve decreases")
    pulls = float(np.sum(curve.mean_pulls))
    if not math.isclose(pulls, outcome.horizon, rel_tol=1e-12):
        problems.append(f"mean_pulls sums to {pulls!r}, not the horizon {outcome.horizon}")
    if not (np.all(np.isfinite(curve.stderr)) and np.all(curve.stderr >= 0)):
        problems.append("stderr is negative or not finite")
    if outcome.written is not None:
        problems.extend(_check_round_trip(outcome))
    return problems


def _check_round_trip(outcome: Outcome) -> list[str]:
    written = outcome.written
    parsed = harness.read_results(written["path"]).get(outcome.curve.label)
    if parsed is None:
        return ["written CSV lacks the curve"]
    problems = []
    expected = {"mean_regret": outcome.curve.mean, "stderr": outcome.curve.stderr}
    overlay = (written["overlays"] or {}).get(outcome.curve.label)
    if overlay is not None:
        expected["bound_overlay"] = overlay
    for column, values in expected.items():
        if column not in parsed or not np.array_equal(parsed[column], values):
            problems.append(f"read_results does not reproduce {column} bit-exactly")
    return problems


def _battery(w: Workload, seed: int, n_jobs: int, horizon: int, workdir: Path, tracer):
    configs = [
        (f"{env}/eps={eps:g}/{policy}",
         ExperimentConfig(env=env, eps_true=eps, policy=policy,
                          horizon=horizon, reps=w.reps, seed=seed))
        for env, eps in BATTERY_SETTINGS
        for policy in COMPARED_POLICIES
    ]
    outcomes = []
    start = time.perf_counter()
    for label, cfg in configs:
        if tracer is not None:
            tracer.set_scope(label)
        outcome = Outcome(label, horizon)
        try:
            outcome.curve = harness.monte_carlo_regret(cfg, n_jobs=n_jobs)
        except Exception:
            outcome.error = traceback.format_exc()
        outcomes.append(outcome)
    return time.perf_counter() - start, outcomes


def _beta_sweep(w: Workload, seed: int, n_jobs: int, horizon: int, workdir: Path, tracer):
    cfg = ExperimentConfig(env="weibull", eps_true=0.0, policy="huber_ucb",
                           horizon=horizon, reps=w.reps, seed=seed,
                           sweep_axis="beta_mult", sweep_values=list(BETA_MULTS))
    labels = [f"huber_ucb[beta_mult={v:g}]" for v in BETA_MULTS]
    if tracer is not None:
        tracer.set_scope("weibull/eps=0/huber_ucb sweep")
    start = time.perf_counter()
    try:
        curves = harness.sweep(cfg, n_jobs=n_jobs)
    except Exception:
        error = traceback.format_exc()
        return time.perf_counter() - start, [Outcome(lab, horizon, error=error) for lab in labels]
    wall = time.perf_counter() - start
    outcomes = [Outcome(curve.label, horizon, curve=curve) for _, curve in curves]
    if [o.label for o in outcomes] != labels:
        for o in outcomes:
            o.problems.append("sweep returned unexpected points")
    return wall, outcomes


def _long_horizon(w: Workload, seed: int, n_jobs: int, horizon: int, workdir: Path, tracer):
    out = workdir / "long-horizon.csv"
    argv = ["run", "--env", "weibull", "--policy", "seq_huber_ucb",
            "--horizon", str(horizon), "--reps", str(w.reps), "--seed", str(seed),
            "--overlay", "--jobs", str(n_jobs), "--out", str(out)]
    written: dict = {}
    write = cli.write_results

    def capture(curves, path, overlays=None, config=None):
        written.update(curves=curves, path=path, overlays=overlays)
        return write(curves, path, overlays=overlays, config=config)

    if tracer is not None:
        tracer.set_scope("weibull/eps=0/seq_huber_ucb cli")
    outcome = Outcome("seq_huber_ucb", horizon)
    cli.write_results = capture
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - start
    except Exception:
        wall = time.perf_counter() - start
        outcome.error = traceback.format_exc()
        return wall, [outcome]
    finally:
        cli.write_results = write
    if code != 0:
        outcome.error = f"cli.main returned {code}"
    elif len(written.get("curves", ())) != 1:
        outcome.error = "cli.main wrote no single curve"
    else:
        outcome.curve = written["curves"][0]
        outcome.written = written
    return wall, [outcome]


DRIVERS = {"battery": _battery, "beta-sweep": _beta_sweep, "long-horizon": _long_horizon}


def run_pass(name: str, seed: int, workdir: Path, tracer=None,
             n_jobs: int | None = None, horizon: int | None = None):
    """Run one pass of a workload; return ``(wall_s, outcomes)`` with checks applied.

    ``wall_s`` runs from the first call into the package to the last curve;
    the checks run after it.
    """
    w = WORKLOADS[name]
    wall, outcomes = DRIVERS[name](
        w, seed, w.n_jobs if n_jobs is None else n_jobs,
        w.horizon if horizon is None else horizon, workdir, tracer)
    for outcome in outcomes:
        outcome.problems.extend(check(outcome))
    return wall, outcomes


class FirstStep(BaseException):
    """Raised by the first reward draw of a set-up probe; carries the monotonic time.

    A ``BaseException`` so the per-config error handling does not swallow it.
    """


def probe(name: str, seed: int, workdir: Path) -> float:
    """Monotonic time at the workload's first episode step (its first reward draw)."""

    def first_sample(arm, rng):
        raise FirstStep(time.clock_gettime(time.CLOCK_MONOTONIC))

    envs.CorruptedArm.sample = first_sample
    try:
        run_pass(name, seed, workdir)
    except FirstStep as stop:
        return stop.args[0]
    raise RuntimeError("the workload finished without an episode step")

