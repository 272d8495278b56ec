"""Command-line front end: run experiments, sweep parameters, emit bound tables.

Subcommands
-----------
run       one Monte-Carlo experiment -> CSV + JSON sidecar
sweep     family of experiments along a beta-multiplier or epsilon axis
bounds    theory tables (KL comparison grid, pull-count bound grid) -> CSV
estimate  one-off robust estimate of a newline-separated data file

A JSON config file mirroring ExperimentConfig can seed any experiment
subcommand; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .confidence import HuberParams
from .envs import PRESETS, check_positive
from .estimators import (
    SequentialHuber,
    catoni_estimate,
    huber_estimate,
    mad_scale,
    median_of_means,
)
from .harness import (
    OVERLAY_BOUNDS,
    SWEEP_AXES,
    ExperimentConfig,
    _fmt,
    bound_overlay,
    monte_carlo_regret,
    resolve,
    sweep,
    sweep_points,
    unread_fields,
    write_results,
)
from .policies import RobustUCBMOM
from .theory import (
    GapProfile,
    alpha_for_gap_ratio,
    corrupted_bernoulli_kl,
    corrupted_bernoulli_kl_bounds,
    max_pulls_huber_ucb,
    max_pulls_huber_ucb_simplified,
    max_pulls_seq_huber_ucb,
    min_pulls_bernoulli,
    min_pulls_student,
)


def _experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--env", choices=PRESETS)
    parser.add_argument("--policy")
    parser.add_argument("--eps-true", type=float)
    parser.add_argument("--eps-assumed", type=float)
    parser.add_argument("--beta-mult", type=float)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--overlay", action="store_true", default=None)
    parser.add_argument("--jobs", type=int, default=1)


def _checked(fn, *args, what: str = "config"):
    """``fn(*args)``, with rejected input ending in a one-line exit, not a traceback."""
    try:
        return fn(*args)
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"invalid {what}: {exc}") from None


def _config_from_args(args: argparse.Namespace, **extra) -> ExperimentConfig:
    """The config file's entries, overridden by every flag that names a config field."""
    data = {}
    if args.config:
        data = _checked(lambda: dict(json.loads(args.config.read_text())))
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    config = _checked(lambda: ExperimentConfig(**{**data, **extra}))
    if config.out is None:
        raise SystemExit(f"{args.command} requires --out (or an 'out' entry in the config file)")
    return config


def _reject_unread(config: ExperimentConfig) -> None:
    """Exit on a field that the config sets or sweeps and its policy does not read."""
    unread = unread_fields(config)
    if unread:
        raise SystemExit(f"policy {config.policy} does not read {', '.join(unread)}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.overlay and config.policy not in OVERLAY_BOUNDS:
        raise SystemExit(f"run --overlay requires a policy in {tuple(OVERLAY_BOUNDS)}")
    _, env, _ = _checked(resolve, config)
    _reject_unread(config)
    curve = monte_carlo_regret(config, env=env, n_jobs=args.jobs)
    overlays = {curve.label: bound_overlay(config, env=env)} if config.overlay else None
    write_results([curve], config.out, overlays=overlays, config=config)
    print(f"final regret {curve.final:.6g} -> {config.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise SystemExit(f"--values must be comma-separated numbers, got {args.values!r}") from None
    config = _config_from_args(args, sweep_axis=args.axis, sweep_values=values)
    if config.overlay:
        raise SystemExit("sweep writes no bound overlay; use run --overlay for one point")
    for _, point in _checked(sweep_points, config):
        _checked(resolve, point)
    _reject_unread(config)
    curves = sweep(config, n_jobs=args.jobs)
    write_results([c for _, c in curves], config.out, config=config)
    for value, curve in curves:
        print(f"{config.sweep_axis}={value:g}: final regret {curve.final:.6g}")
    return 0


def _kl_table(args: argparse.Namespace) -> list[list]:
    """The KL controls against the exact two-point KL on a log grid of gaps, header first."""
    sigma, eps = args.sigma, args.eps
    gaps = np.logspace(
        math.log10(check_positive(args.gap_min, "--gap-min")),
        math.log10(check_positive(args.gap_max, "--gap-max")),
        check_positive(args.points, "--points"),
    )
    rows = [["gap", "exact_kl", "uniform_bound", "high_regime_bound", "low_regime"]]
    for gap in gaps:
        uniform, high, low_flag = corrupted_bernoulli_kl_bounds(gap, sigma, eps)
        # The mirrored two-point construction realizes any gap/sigma ratio.
        exact = corrupted_bernoulli_kl(alpha_for_gap_ratio(gap, sigma), eps)
        rows.append([*map(_fmt, (gap, exact, uniform)), "" if high is None else _fmt(high),
                     int(low_flag)])
    return rows


def _pulls_table(args: argparse.Namespace) -> list[list]:
    """Pull-count lower and upper bounds on a grid of (eps, gap) at sigma = 1, header first."""
    sigma = 1.0
    gaps = np.logspace(-1, 1, check_positive(args.points, "--points")) * sigma
    uppers = (max_pulls_huber_ucb, max_pulls_huber_ucb_simplified, max_pulls_seq_huber_ucb)
    rows = [["eps", "gap", "lower_student", "lower_bernoulli",
             "upper_pulls", "upper_pulls_simplified", "upper_pulls_seq"]]
    for eps in (0.0, 0.02, 0.05, 0.1):
        cfg = HuberParams(beta=4.0 * sigma, sigma=sigma, eps=eps, p=0.95, bias=0.0)
        for gap in gaps:
            profile = GapProfile(gap, sigma, eps)
            upper = [_fmt(bound(args.horizon, profile, cfg)) for bound in uppers]
            lower_bern = _fmt(min_pulls_bernoulli(gap, sigma, eps)) if eps > 0 else ""
            rows.append([eps, _fmt(gap), _fmt(min_pulls_student(gap, sigma)), lower_bern, *upper])
    return rows


# Default of each bounds flag; a table gets the defaults of the flags it reads.
_BOUNDS_DEFAULTS = {"sigma": 1.0, "eps": 0.2, "gap_min": 0.01, "gap_max": 4.0,
                   "points": 50, "horizon": 5000}
# Table name -> (rows under the flags it reads, those flags); it is given no other.
_TABLES = {
    "kl": (_kl_table, ("sigma", "eps", "gap_min", "gap_max", "points")),
    "pulls": (_pulls_table, ("points", "horizon")),
}


def _read_flags(args: argparse.Namespace, defaults: dict, reads: tuple,
                what: str) -> argparse.Namespace:
    """Only the flags ``what`` reads, unset ones at their defaults; exit on one it ignores."""
    for name in defaults:
        if name not in reads and getattr(args, name) is not None:
            raise SystemExit(f"{what} does not read --{name.replace('_', '-')}")
    given = {name: getattr(args, name) for name in reads}
    return argparse.Namespace(**{name: defaults[name] if value is None else value
                                 for name, value in given.items()})


def _cmd_bounds(args: argparse.Namespace) -> int:
    build, reads = _TABLES[args.table]
    flags = _read_flags(args, _BOUNDS_DEFAULTS, reads, f"bounds --table {args.table}")
    table = _checked(build, flags, what="bounds table")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w", newline="") as fh:
        csv.writer(fh).writerows(table)
    print(f"wrote {args.out}")
    return 0


def _sequential_huber(data: np.ndarray, args: argparse.Namespace) -> float:
    est = SequentialHuber(args.beta)
    for x in data:
        est.update(float(x))
    return est.value


def _median_of_means(data: np.ndarray, args: argparse.Namespace) -> float:
    blocks = args.blocks or RobustUCBMOM.block_count(data.size, max(data.size, 2))
    if not 1 <= blocks <= data.size:
        raise ValueError(f"--blocks must be in [1, {data.size}], or 0 for the default")
    return median_of_means(data, blocks)


# Default of each estimate flag; an estimator gets the defaults of the flags it reads.
_ESTIMATE_DEFAULTS = {"beta": 1.0, "sigma": 1.0, "scale": 1.0, "blocks": 0}
# Estimator name -> (value of a nonempty sample under the flags it reads, those
# flags; it is given no other); the keys are the --estimator choices.
ESTIMATORS = {
    "huber": (lambda data, args: huber_estimate(data, args.beta), ("beta",)),
    "seqhub": (_sequential_huber, ("beta",)),
    "catoni": (lambda data, args: catoni_estimate(data, args.sigma, args.scale),
               ("sigma", "scale")),
    "mom": (_median_of_means, ("blocks",)),
    "mean": (lambda data, args: float(np.mean(data)), ()),
    "median": (lambda data, args: float(np.median(data)), ()),
    "mad": (lambda data, args: mad_scale(data), ()),
}


def _load_samples(path: Path) -> np.ndarray:
    with warnings.catch_warnings():
        # an empty file is rejected below rather than warned about
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, ndmin=1)
    if data.size == 0:
        raise ValueError(f"{path} holds no numbers")
    return data


def _cmd_estimate(args: argparse.Namespace) -> int:
    estimate, reads = ESTIMATORS[args.estimator]
    flags = _read_flags(args, _ESTIMATE_DEFAULTS, reads, f"estimate --estimator {args.estimator}")
    data = _checked(_load_samples, args.input, what="data file")
    value = _checked(estimate, data, flags, what="estimate")
    print(format(value, ".17g"))
    return 0


def _defaulted_flags(parser, defaults: dict) -> None:
    """One flag per default, unset unless given."""
    for name, default in defaults.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=type(default),
                            help=f"default {default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrupted-bandits",
        description="Simulate heavy-tailed bandits under stochastic corruption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one Monte-Carlo experiment")
    _experiment_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep a parameter axis")
    _experiment_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.set_defaults(func=_cmd_sweep)

    bounds_p = sub.add_parser("bounds", help="emit theory tables as CSV")
    bounds_p.add_argument("--table", choices=_TABLES, default="kl")
    bounds_p.add_argument("--out", type=Path, required=True)
    _defaulted_flags(bounds_p, _BOUNDS_DEFAULTS)
    bounds_p.set_defaults(func=_cmd_bounds)

    est_p = sub.add_parser("estimate", help="robust estimate of a data file")
    est_p.add_argument("input", type=Path, help="newline-separated reals")
    est_p.add_argument("--estimator", choices=ESTIMATORS, default="huber")
    _defaulted_flags(est_p, _ESTIMATE_DEFAULTS)
    est_p.set_defaults(func=_cmd_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
