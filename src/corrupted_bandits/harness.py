"""Experiment orchestration: seeded episodes, Monte-Carlo regret, sweeps, CSV output.

Randomness is counter-based: every (base seed, replication, arm) triple keys
its own Philox stream, and the policy's tie-breaking randomness gets the
stream at arm index ``k``.  Replications are therefore order-independent and
can run in parallel without any shared state; results are merged by
replication index so output is seed-deterministic regardless of worker count.

``resolve`` is the one path from an ``ExperimentConfig`` to its environment
and policy recipe: it fills unset fields from the preset, floors each arm's
sigma, and builds the robust index policies' per-arm ``HuberParams``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .confidence import HuberParams, chebyshev_p, huber_bias_bound
from .envs import BanditEnv, check_eps, check_positive, make_env
from .policies import PolicyBuild, check_clip
from .theory import GapProfile, max_pulls_huber_ucb_simplified, max_pulls_seq_huber_ucb

__all__ = [
    "ExperimentConfig",
    "EpisodeResult",
    "RegretCurve",
    "resolve",
    "resolve_p",
    "unread_fields",
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
    "FIELD_READERS",
    "RNG_CONTRACT",
]

# Version of the randomness contract: the Philox stream of each (seed, rep, arm)
# and the order in which each step draws from them.  A change to either bumps
# it and re-records tests/golden_digests.json.
RNG_CONTRACT = 1

# Reproduction defaults per preset: threshold multiplier, bias handling, and
# the reward range Exp3 clips into (canonical [0, 1] for Bernoulli rewards).
PRESET_DEFAULTS = {
    "bernoulli": {"beta_mult": 0.1, "bias_rule": "zero", "exp3_clip": (0.0, 1.0)},
    "student": {"beta_mult": 1.0, "bias_rule": "zero"},
    "pareto": {"beta_mult": 1.5, "bias_rule": "half_second_moment"},
    "weibull": {"beta_mult": 5.0, "bias_rule": "zero"},
}

SWEEP_AXES = ("beta_mult", "eps_assumed", "eps_true")

_AGG_ROWS, _WRITE_ROWS = 4096, 1024  # rows per block of aggregate's mean and of the CSV

# Robust index policy (only these read HuberParams) -> the per-arm pull bound of its overlay.
OVERLAY_BOUNDS = {
    "huber_ucb": max_pulls_huber_ucb_simplified,
    "seq_huber_ucb": max_pulls_seq_huber_ucb,
}

# Config field -> the policies that read it; every policy reads the fields not listed.
# Those policies read p_value only in the explicit p mode (see unread_fields).
FIELD_READERS = {
    **dict.fromkeys(("beta_mult", "eps_assumed", "bias_rule", "p_mode", "p_value"),
                    tuple(OVERLAY_BOUNDS)),
    "exp3_clip": ("exp3",),
}

# Floor on an arm's analytic sigma, for Dirac (sigma = 0) inliers.
SIGMA_FLOOR = 1e-12

# Bias rule -> bound on |inlier mean - Huber functional| from an arm's sigma and beta.
BIAS_RULES = {
    "zero": lambda sigma, beta: 0.0,
    "second_moment": huber_bias_bound,
    "half_second_moment": lambda sigma, beta: 0.5 * huber_bias_bound(sigma, beta),
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
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
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
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        if not isinstance(self.overlay, bool):
            raise ValueError(f"overlay must be true or false, got {self.overlay!r}")

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
    corrupted: np.ndarray


def _arm_rngs(seed: int, rep: int, k: int) -> list[np.random.Generator]:
    # One counter-based stream per (seed, replication, arm); index k is the
    # policy's own stream for tie-breaking and sampling.
    return [
        np.random.Generator(np.random.Philox([seed, rep, i]))
        for i in range(k + 1)
    ]


def resolve_p(mode: str, value: float | None, sigma: float, beta: float, eps: float,
              inlier=None) -> float:
    """Pick the concentration probability ``p`` for one arm.

    ``explicit`` takes ``value`` as given.  ``exact`` integrates the inlier
    law over ``[mean - beta/2, mean + beta/2]``.  ``chebyshev`` (the default
    mode elsewhere) uses the distribution-free bound, floored at 3/4 (the
    canonical value at ``beta = 4 sigma``) so that small-``beta``
    configurations remain runnable; when ``5 eps`` crowds out the floor, the
    midpoint of ``(5 eps, 1)`` is used instead.  In every mode the result must
    exceed ``5 eps`` or the configuration is rejected.
    """
    if mode == "explicit":
        if value is None:
            raise ValueError("explicit p mode requires a value")
        p = float(value)
    elif mode == "exact":
        if inlier is None:
            raise ValueError("exact p mode requires the inlier law")
        mu = inlier.mean()
        p = inlier.interval_prob(mu - beta / 2.0, mu + beta / 2.0)
    elif mode == "chebyshev":
        if 5.0 * eps >= 1.0:
            raise ValueError("5*eps >= 1: no valid p exists")
        floor = 0.75 if 5.0 * eps < 0.75 else 0.5 * (1.0 + 5.0 * eps)
        p = max(chebyshev_p(sigma, beta), floor)
    else:
        raise ValueError("p mode must be 'explicit', 'exact', or 'chebyshev'")
    if not 0.0 < p <= 1.0 or p <= 5.0 * eps:
        raise ValueError(f"resolved p={p:g} unusable (needs 5*eps={5 * eps:g} < p <= 1)")
    return p


def resolve(
    config: ExperimentConfig, env: BanditEnv | None = None
) -> tuple[ExperimentConfig, BanditEnv, PolicyBuild]:
    """The resolved config, its environment (``env`` if given) and its policy recipe."""
    cfg = config.resolved()
    if env is None:
        env = make_env(cfg.env, cfg.eps_true)
    sigmas = tuple(max(float(s), SIGMA_FLOOR) for s in env.sigmas)
    arm_params = []
    if cfg.policy in OVERLAY_BOUNDS:
        eps = cfg.eps_assumed
        for arm, sigma in zip(env.arms, sigmas):
            beta = cfg.beta_mult * sigma
            p = resolve_p(cfg.p_mode, cfg.p_value, sigma, beta, eps, inlier=arm.inlier)
            bias = BIAS_RULES[cfg.bias_rule](sigma, beta)
            arm_params.append(HuberParams(beta=beta, sigma=sigma, eps=eps, p=p, bias=bias))
    return cfg, env, PolicyBuild(cfg.policy, cfg.horizon, tuple(arm_params), sigmas, cfg.exp3_clip)


def unread_fields(config: ExperimentConfig) -> list[str]:
    """The fields of ``FIELD_READERS`` that ``config`` sets or sweeps and its policy does not read.

    ``p_value`` is unread outside the explicit p mode.  A field counts as set
    when it differs from its ``ExperimentConfig`` default, so a sidecar's
    config runs again as it was written.
    """
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    return [name for name, readers in FIELD_READERS.items()
            if (config.policy not in readers or name == "p_value" and config.p_mode != "explicit")
            and (name == config.sweep_axis or getattr(config, name) != defaults[name])]


def run_episode(env: BanditEnv, build: PolicyBuild, seed: int, rep: int = 0) -> EpisodeResult:
    """Play one seeded episode of ``build.horizon`` steps; deterministic in (seed, rep)."""
    horizon = build.horizon
    streams = _arm_rngs(seed, rep, env.k)
    policy_rng = streams[env.k]
    policy = build.build()
    actions = np.empty(horizon, dtype=np.int64)
    corrupted = np.empty(horizon, dtype=bool)
    for step in range(horizon):
        arm = policy.select_arm(policy_rng)
        x, was_corrupted = env.arms[arm].sample(streams[arm])
        policy.update(arm, x)
        actions[step] = arm
        corrupted[step] = was_corrupted
    return EpisodeResult(actions, corrupted)


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
    arm_params: tuple = ()  # the robust index policies' HuberParams, one per arm

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

    Memory stays at a few horizon-length columns: one reused ``(horizon, k)``
    counts buffer and ``reps`` regret columns.  Each replication's regret is one
    product over the whole horizon, since BLAS rounds a row differently
    depending on how the rows are split.  The mean is summed in row blocks, one
    ``1 x k`` product per step, which rounds like a dot product in any block.
    An action outside ``[0, k)`` raises ``ValueError``.
    """
    reps, horizon, k = len(actions_by_rep), actions_by_rep[0].size, gaps.size
    eye = np.eye(k)
    per_rep = np.empty((reps, horizon))
    counts = np.empty((horizon, k))
    for m, actions in enumerate(actions_by_rep):
        # Checked here so that take can write into counts: its default mode buffers the output.
        if actions.min() < 0 or actions.max() >= k:
            raise ValueError(f"replication {m} has an action outside [0, {k})")
        np.take(eye, actions, axis=0, out=counts, mode="clip")
        np.cumsum(counts, axis=0, out=counts)
        np.matmul(counts, gaps, out=per_rep[m])
    del counts
    if reps > 1:
        stderr = per_rep.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        stderr = np.zeros(horizon)
    mean = np.empty(horizon)
    carry = np.zeros(k)  # summed counts up to the block; exact integers, as are all counts
    for start in range(0, horizon, _AGG_ROWS):
        total = sum(eye[actions[start:start + _AGG_ROWS]] for actions in actions_by_rep)
        total[0] += carry
        carry = np.cumsum(total, axis=0, out=total)[-1].copy()
        total /= reps
        mean[start:start + _AGG_ROWS] = (total[:, None, :] @ gaps[:, None])[:, 0, 0]
    return mean, stderr, carry / reps


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
        arm_params=build.arm_params,
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
        overlay += gap * bound_fn(steps, profile, arm_cfg)
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
    arrays bit-exactly; rows go out in blocks, so memory does not grow with the
    horizon.  The sidecar records ``RNG_CONTRACT`` and lists each curve's arms:
    beta, sigma, beta_valid.
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
            columns = [curve.mean, curve.stderr] + ([] if overlay is None else [overlay])
            blank = [repeat("")] if overlays and overlay is None else []
            if any(len(column) != len(curve.steps) for column in columns):
                raise ValueError(f"curve {curve.label!r}: each column needs one value per step")
            for start in range(0, len(curve.steps), _WRITE_ROWS):
                rows = slice(start, start + _WRITE_ROWS)
                writer.writerows(zip(curve.steps[rows].tolist(), repeat(curve.label),
                                     *(map(_fmt, c[rows].tolist()) for c in columns), *blank))
    meta = {
        "config": config.to_dict() if config is not None else None,
        "base_seed": config.seed if config is not None else None,
        "rng_contract": RNG_CONTRACT,
        "curves": [
            {"label": c.label, "reps": c.reps, "final_regret": c.final,
             "arms": [{"beta": a.beta, "sigma": a.sigma, "beta_valid": a.beta_valid}
                      for a in c.arm_params]}
            for c in curves
        ],
    }
    meta_path = path.with_suffix(".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2))
    return path


def read_results(path: str | Path) -> dict[str, dict[str, np.ndarray]]:
    """Reparse a results CSV into per-label arrays (bit-exact round trip).

    Values go into typed ``array`` buffers, shared by the returned int64 ``step`` and
    float64 columns; ``bound_overlay`` appears only for a curve with values."""
    out: dict[str, tuple[array, ...]] = {}
    with Path(path).open(newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        if not header:
            return {}
        i_step, i_label, i_mean, i_err = map(
            header.index, ("step", "policy", "mean_regret", "stderr"))
        i_bound = header.index("bound_overlay") if "bound_overlay" in header else None
        for row in filter(None, rows):  # skip blank lines
            step, mean, err, bound = out.get(row[i_label]) or out.setdefault(
                row[i_label], tuple(map(array, "qddd")))
            step.append(int(row[i_step]))
            mean.append(float(row[i_mean]))
            err.append(float(row[i_err]))
            if i_bound is not None and row[i_bound]:
                bound.append(float(row[i_bound]))
    names = ("step", "mean_regret", "stderr", "bound_overlay")
    return {
        label: {name: np.frombuffer(col, col.typecode) for name, col in zip(names, cols) if col}
        for label, cols in out.items()
    }
