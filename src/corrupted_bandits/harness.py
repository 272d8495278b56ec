"""Experiment orchestration: seeded episodes, Monte-Carlo regret, sweeps, CSV output.

Randomness is counter-based: every (base seed, replication, arm) triple keys
its own Philox stream, and the policy's tie-breaking randomness gets the
stream at arm index ``k``.  Replications are therefore order-independent and
can run in parallel without any shared state; results are merged by
replication index so output is seed-deterministic regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .envs import BanditEnv, check_eps, check_positive, make_env
from .policies import BIAS_RULES, PolicyBuild, check_clip, make_policy
from .theory import (
    GapProfile,
    InapplicableBound,
    max_pulls_huber_ucb_simplified,
    max_pulls_seq_huber_ucb,
)

__all__ = [
    "ExperimentConfig",
    "EpisodeResult",
    "RegretCurve",
    "resolve",
    "run_episode",
    "aggregate",
    "monte_carlo_regret",
    "sweep",
    "sweep_points",
    "bound_overlay",
    "write_results",
    "read_results",
    "PRESET_DEFAULTS",
    "OVERLAY_BOUNDS",
]

# Reproduction defaults per preset: threshold multiplier, bias handling, and
# the reward range Exp3 clips into (canonical [0, 1] for Bernoulli rewards).
PRESET_DEFAULTS = {
    "bernoulli": {"beta_mult": 0.1, "bias_rule": "zero", "exp3_clip": (0.0, 1.0)},
    "student": {"beta_mult": 1.0, "bias_rule": "zero"},
    "pareto": {"beta_mult": 1.5, "bias_rule": "half_second_moment"},
    "weibull": {"beta_mult": 5.0, "bias_rule": "zero"},
}

SWEEP_AXES = ("beta_mult", "eps_assumed", "eps_true")

# Policy name -> the per-arm pull bound its regret overlay is built from.
OVERLAY_BOUNDS = {
    "huber_ucb": max_pulls_huber_ucb_simplified,
    "seq_huber_ucb": max_pulls_seq_huber_ucb,
}


@dataclass
class ExperimentConfig:
    """One experiment: environment, policy parameters, horizon, replications."""

    env: str = "bernoulli"
    eps_true: float = 0.0
    policy: str = "huber_ucb"
    horizon: int = 5000
    reps: int = 100
    seed: int = 0
    beta_mult: float | None = None
    eps_assumed: float | None = None
    bias_rule: str | None = None
    p_mode: str = "chebyshev"
    p_value: float | None = None
    exp3_clip: tuple[float, float] | None = None
    out: str | None = None
    overlay: bool = False
    sweep_axis: str | None = None
    sweep_values: list[float] = field(default_factory=list)

    def __post_init__(self):
        for name, low in (("horizon", 1), ("reps", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
        check_eps(self.eps_true, "eps_true")
        if self.eps_assumed is not None:
            check_eps(self.eps_assumed, "eps_assumed")
        if self.beta_mult is not None:
            check_positive(self.beta_mult, "beta_mult")
        if self.bias_rule is not None and self.bias_rule not in BIAS_RULES:
            raise ValueError(f"bias_rule must be one of {tuple(BIAS_RULES)}")
        if self.exp3_clip is not None:
            self.exp3_clip = check_clip(self.exp3_clip)
        if self.sweep_axis is not None and self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}")

    def resolved(self) -> "ExperimentConfig":
        """A copy with preset-dependent defaults filled in for unset fields."""
        defaults = {
            "beta_mult": 4.0,
            "eps_assumed": self.eps_true,
            "bias_rule": "zero",
            "exp3_clip": (-10.0, 10.0),
            **PRESET_DEFAULTS.get(self.env, {}),
        }
        return replace(
            self, **{key: value for key, value in defaults.items() if getattr(self, key) is None}
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpisodeResult:
    actions: np.ndarray
    rewards: np.ndarray
    corrupted: np.ndarray


def _arm_rngs(seed: int, rep: int, k: int) -> list[np.random.Generator]:
    # One counter-based stream per (seed, replication, arm); index k is the
    # policy's own stream for tie-breaking and sampling.
    return [
        np.random.Generator(np.random.Philox([seed, rep, i]))
        for i in range(k + 1)
    ]


def resolve(
    config: ExperimentConfig, env: BanditEnv | None = None
) -> tuple[ExperimentConfig, BanditEnv, PolicyBuild]:
    """The resolved config, its environment (``env`` if given) and its policy recipe."""
    cfg = config.resolved()
    if env is None:
        env = make_env(cfg.env, cfg.eps_true)
    return cfg, env, make_policy(cfg, env)


def run_episode(env: BanditEnv, build: PolicyBuild, seed: int, rep: int = 0) -> EpisodeResult:
    """Play one seeded episode of ``build.horizon`` steps; deterministic in (seed, rep)."""
    horizon = build.horizon
    streams = _arm_rngs(seed, rep, env.k)
    policy_rng = streams[env.k]
    policy = build.build()
    actions = np.empty(horizon, dtype=np.int64)
    rewards = np.empty(horizon, dtype=float)
    corrupted = np.empty(horizon, dtype=bool)
    for step in range(horizon):
        arm = policy.select_arm(policy_rng)
        x, was_corrupted = env.arms[arm].sample(streams[arm])
        policy.update(arm, x)
        actions[step] = arm
        rewards[step] = x
        corrupted[step] = was_corrupted
    return EpisodeResult(actions, rewards, corrupted)


@dataclass
class RegretCurve:
    """Monte-Carlo regret estimate with per-step replication scatter."""

    label: str
    steps: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    mean_pulls: np.ndarray
    gaps: np.ndarray
    reps: int

    @property
    def final(self) -> float:
        return float(self.mean[-1])

    def growth_ratio(self) -> float:
        """Final regret over the regret at half the horizon."""
        half = len(self.steps) // 2
        return self.final / float(self.mean[half - 1])


def _mc_task(args):
    return run_episode(*args).actions


def aggregate(
    actions_by_rep: list[np.ndarray], gaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step mean regret, its standard error, and the final mean pull counts.

    Pull counts are summed over replications one ``(horizon, k)`` array at a
    time, so memory stays at ``reps * horizon`` for the per-replication
    regret.  The mean regret at step ``t`` is the gap-weighted mean count,
    one ``1 x k`` product per step.
    """
    reps, horizon, k = len(actions_by_rep), actions_by_rep[0].size, gaps.size
    eye = np.eye(k)
    total = np.zeros((horizon, k))
    per_rep = np.empty((reps, horizon))
    for m, actions in enumerate(actions_by_rep):
        counts = np.cumsum(eye[actions], axis=0)
        total += counts
        per_rep[m] = counts @ gaps
    mean_counts = total / reps
    # A batched 1 x k product per step rounds like a plain dot product; one
    # matrix-vector product over all steps does not, in the last bits.
    mean = (mean_counts[:, None, :] @ gaps[:, None])[:, 0, 0]
    if reps > 1:
        stderr = per_rep.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        stderr = np.zeros(horizon)
    return mean, stderr, mean_counts[-1]


def monte_carlo_regret(
    config: ExperimentConfig,
    env: BanditEnv | None = None,
    n_jobs: int = 1,
    label: str | None = None,
) -> RegretCurve:
    """Average the gap-weighted pull counts of ``reps`` independent episodes.

    Replication ``m`` always uses the streams keyed by ``(seed, m, arm)``, so
    the curve does not depend on ``n_jobs`` or completion order.
    """
    cfg, env, build = resolve(config, env)
    tasks = [(env, build, cfg.seed, m) for m in range(cfg.reps)]
    if n_jobs == 1 or cfg.reps == 1:
        actions_by_rep = [_mc_task(t) for t in tasks]
    else:
        workers = min(n_jobs if n_jobs > 0 else math.inf, cfg.reps, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map yields in task order, i.e. by replication index
            actions_by_rep = list(
                pool.map(_mc_task, tasks, chunksize=max(1, cfg.reps // (4 * workers)))
            )
    mean, stderr, mean_pulls = aggregate(actions_by_rep, env.gaps)
    return RegretCurve(
        label=label or cfg.policy,
        steps=np.arange(1, cfg.horizon + 1),
        mean=mean,
        stderr=stderr,
        mean_pulls=mean_pulls,
        gaps=env.gaps.copy(),
        reps=cfg.reps,
    )


def sweep_points(config: ExperimentConfig) -> list[tuple[float, ExperimentConfig]]:
    """Each axis value of a sweep with the config of its point."""
    if config.sweep_axis is None or not config.sweep_values:
        raise ValueError("sweep requires sweep_axis and nonempty sweep_values")
    # apply the axis before resolving defaults, so dependent fields (an
    # unset assumed corruption rate tracks the true one) follow the point
    return [
        (value, replace(config, **{config.sweep_axis: value}, sweep_axis=None, sweep_values=[]))
        for value in config.sweep_values
    ]


def sweep(
    config: ExperimentConfig, n_jobs: int = 1
) -> list[tuple[float, RegretCurve]]:
    """One curve per axis value, sharing the base seed for variance reduction."""
    curves = []
    for value, point in sweep_points(config):
        curve = monte_carlo_regret(
            point,
            n_jobs=n_jobs,
            label=f"{config.policy}[{config.sweep_axis}={value:g}]",
        )
        curves.append((value, curve))
    return curves


def bound_overlay(config: ExperimentConfig, env: BanditEnv | None = None) -> np.ndarray:
    """Per-step theoretical regret bound, gap-weighted across suboptimal arms.

    Uses the simplified explicit-constant bounds with the environment's
    analytic scales and the policy's configured parameters; ``inf`` where a
    shifted gap is nonpositive (bound inapplicable).
    """
    if config.policy not in OVERLAY_BOUNDS:
        raise ValueError("bound overlays exist only for the robust index policies")
    cfg, env, build = resolve(config, env)
    bound_fn = OVERLAY_BOUNDS[cfg.policy]
    steps = np.arange(1, cfg.horizon + 1)
    overlay = np.zeros(cfg.horizon)
    for i, arm_cfg in enumerate(build.arm_params):
        gap = float(env.gaps[i])
        if gap == 0.0:
            continue
        profile = GapProfile(gap, arm_cfg.sigma, arm_cfg.eps)
        try:
            values = np.array([bound_fn(int(t), profile, arm_cfg) for t in steps])
        except InapplicableBound:
            values = np.full(cfg.horizon, math.inf)
        overlay = overlay + gap * values
    return overlay


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_results(
    curves: list[RegretCurve],
    path: str | Path,
    overlays: dict[str, np.ndarray] | None = None,
    config: ExperimentConfig | None = None,
) -> Path:
    """CSV of per-step curves plus a JSON sidecar with the full configuration.

    Floats are written with 17 significant digits so a reparse reproduces the
    arrays bit-exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    overlays = overlays or {}
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["step", "policy", "mean_regret", "stderr"]
        if overlays:
            header.append("bound_overlay")
        writer.writerow(header)
        for curve in curves:
            overlay = overlays.get(curve.label)
            for i, step in enumerate(curve.steps):
                row = [int(step), curve.label, _fmt(curve.mean[i]), _fmt(curve.stderr[i])]
                if overlays:
                    row.append(_fmt(overlay[i]) if overlay is not None else "")
                writer.writerow(row)
    meta = {
        "config": config.to_dict() if config is not None else None,
        "base_seed": config.seed if config is not None else None,
        "curves": [
            {"label": c.label, "reps": c.reps, "final_regret": c.final}
            for c in curves
        ],
    }
    meta_path = path.with_suffix(".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2))
    return path


def read_results(path: str | Path) -> dict[str, dict[str, np.ndarray]]:
    """Reparse a results CSV into per-label arrays (bit-exact round trip)."""
    out: dict[str, dict[str, list[float]]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
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
