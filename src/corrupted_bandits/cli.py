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
from pathlib import Path

import numpy as np

from .confidence import HuberParams
from .estimators import (
    SequentialHuber,
    catoni_estimate,
    huber_estimate,
    mad_scale,
    median_of_means,
)
from .harness import (
    OVERLAY_BOUNDS,
    ExperimentConfig,
    bound_overlay,
    monte_carlo_regret,
    resolve,
    sweep,
    sweep_points,
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
    parser.add_argument("--env", choices=["bernoulli", "student", "pareto", "weibull"])
    parser.add_argument("--policy")
    parser.add_argument("--eps-true", type=float, dest="eps_true")
    parser.add_argument("--eps-assumed", type=float, dest="eps_assumed")
    parser.add_argument("--beta-mult", type=float, dest="beta_mult")
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--overlay", action="store_true", default=None)
    parser.add_argument("--jobs", type=int, default=1)


def _checked(fn, *args):
    """``fn(*args)``, with a rejected config ending in a one-line exit, not a traceback."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid config: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        data.update(json.loads(Path(args.config).read_text()))
    for key in (
        "env",
        "policy",
        "eps_true",
        "eps_assumed",
        "beta_mult",
        "horizon",
        "reps",
        "seed",
        "overlay",
    ):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if args.out is not None:
        data["out"] = str(args.out)
    return _checked(ExperimentConfig.from_dict, data)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.out is None:
        raise SystemExit("run requires --out (or an 'out' entry in the config file)")
    if config.overlay and config.policy not in OVERLAY_BOUNDS:
        raise SystemExit(f"run --overlay requires a policy in {tuple(OVERLAY_BOUNDS)}")
    _, env, _ = _checked(resolve, config)
    curve = monte_carlo_regret(config, env=env, n_jobs=args.jobs)
    overlays = None
    if config.overlay:
        overlays = {curve.label: bound_overlay(config, env=env)}
    write_results([curve], config.out, overlays=overlays, config=config)
    print(f"final regret {curve.final:.6g} -> {config.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    config.sweep_axis = args.axis
    try:
        config.sweep_values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise SystemExit(f"--values must be comma-separated numbers, got {args.values!r}") from None
    if config.out is None:
        raise SystemExit("sweep requires --out")
    if config.overlay:
        raise SystemExit("sweep writes no bound overlay; use run --overlay for one point")
    for _, point in _checked(sweep_points, config):
        _checked(resolve, point)
    curves = sweep(config, n_jobs=args.jobs)
    write_results([c for _, c in curves], config.out, config=config)
    for value, curve in curves:
        print(f"{config.sweep_axis}={value:g}: final regret {curve.final:.6g}")
    return 0


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_bounds(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if args.table == "kl":
        sigma, eps = args.sigma, args.eps
        gaps = np.logspace(math.log10(args.gap_min), math.log10(args.gap_max), args.points)
        rows = []
        for gap in gaps:
            uniform, high, low_flag = corrupted_bernoulli_kl_bounds(gap, sigma, eps)
            # The mirrored two-point construction realizes any gap/sigma ratio.
            alpha = alpha_for_gap_ratio(gap, sigma)
            exact = corrupted_bernoulli_kl(alpha, eps)
            rows.append(
                [
                    f"{gap:.17g}",
                    f"{exact:.17g}",
                    f"{uniform:.17g}",
                    f"{high:.17g}" if high is not None else "",
                    int(low_flag),
                ]
            )
        _write_rows(out, ["gap", "exact_kl", "uniform_bound", "high_regime_bound", "low_regime"], rows)
    else:
        rows = []
        for eps in (0.0, 0.02, 0.05, 0.1):
            for ratio in np.logspace(-1, 1, args.points):
                sigma = 1.0
                gap = ratio * sigma
                lower_student = min_pulls_student(gap, sigma)
                lower_bern = (
                    min_pulls_bernoulli(gap, sigma, eps) if eps > 0 else ""
                )
                cfg = HuberParams(beta=4.0 * sigma, sigma=sigma, eps=eps, p=0.95, bias=0.0)
                profile = GapProfile(gap, sigma, eps)
                try:
                    upper = max_pulls_huber_ucb(args.horizon, profile, cfg)
                    upper_simple = max_pulls_huber_ucb_simplified(args.horizon, profile, cfg)
                    upper_seq = max_pulls_seq_huber_ucb(args.horizon, profile, cfg)
                except ValueError:
                    upper = upper_simple = upper_seq = math.inf
                rows.append(
                    [eps, f"{gap:.17g}", f"{lower_student:.17g}",
                     f"{lower_bern:.17g}" if lower_bern != "" else "",
                     f"{upper:.17g}", f"{upper_simple:.17g}", f"{upper_seq:.17g}"]
                )
        _write_rows(
            out,
            ["eps", "gap", "lower_student", "lower_bernoulli",
             "upper_pulls", "upper_pulls_simplified", "upper_pulls_seq"],
            rows,
        )
    print(f"wrote {out}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    data = np.loadtxt(args.input, ndmin=1)
    name = args.estimator
    if name == "huber":
        value = huber_estimate(data, args.beta)
    elif name == "seqhub":
        est = SequentialHuber(args.beta)
        for x in data:
            est.update(float(x))
        value = est.value
    elif name == "catoni":
        value = catoni_estimate(data, args.sigma, args.scale)
    elif name == "mom":
        blocks = args.blocks or RobustUCBMOM.block_count(data.size, max(data.size, 2))
        if not 1 <= blocks <= data.size:
            raise SystemExit(f"--blocks must be in [1, {data.size}], or 0 for the default")
        value = median_of_means(data, blocks)
    elif name == "mean":
        value = float(np.mean(data))
    elif name == "median":
        value = float(np.median(data))
    else:
        value = mad_scale(data)
    print(format(value, ".17g"))
    return 0


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
    sweep_p.add_argument("--axis", required=True, choices=["beta_mult", "eps_assumed", "eps_true"])
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.set_defaults(func=_cmd_sweep)

    bounds_p = sub.add_parser("bounds", help="emit theory tables as CSV")
    bounds_p.add_argument("--table", choices=["kl", "pulls"], default="kl")
    bounds_p.add_argument("--out", type=Path, required=True)
    bounds_p.add_argument("--sigma", type=float, default=1.0)
    bounds_p.add_argument("--eps", type=float, default=0.2)
    bounds_p.add_argument("--gap-min", type=float, default=0.01, dest="gap_min")
    bounds_p.add_argument("--gap-max", type=float, default=4.0, dest="gap_max")
    bounds_p.add_argument("--points", type=int, default=50)
    bounds_p.add_argument("--horizon", type=int, default=5000)
    bounds_p.set_defaults(func=_cmd_bounds)

    est_p = sub.add_parser("estimate", help="robust estimate of a data file")
    est_p.add_argument("input", type=Path, help="newline-separated reals")
    est_p.add_argument(
        "--estimator",
        choices=["huber", "seqhub", "catoni", "mom", "mean", "median", "mad"],
        default="huber",
    )
    est_p.add_argument("--beta", type=float, default=1.0)
    est_p.add_argument("--sigma", type=float, default=1.0)
    est_p.add_argument("--scale", type=float, default=1.0)
    est_p.add_argument("--blocks", type=int, default=0)
    est_p.set_defaults(func=_cmd_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
