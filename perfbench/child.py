"""One measurement process of the benchmark; ``run.py`` starts it and reads its last line.

Modes:

``probe``    run the workload until its first reward draw and print the
             monotonic time of that draw (the set-up probe);
``measure``  run untraced passes for ``--seconds`` and print their walls,
             per-config digests and check results, and peak memory;
``trace``    run the workload untraced, then twice serially without and
             with spans in turn, and print the per-layer metrics with every
             run's digests.

The package is imported from the ``src`` directory of this checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import corrupted_bandits  # noqa: E402
from spans import Tracer, instrument, layer_metrics, step_table  # noqa: E402
from workloads import (  # noqa: E402
    COMPARED_POLICIES,
    WARMUP_HORIZON,
    WORKLOADS,
    probe,
    run_pass,
)

# Passes a measurement makes even when --seconds runs out sooner, so the
# median and the pass-to-pass determinism check always have two passes.
MIN_PASSES = 2


def _summary(kind: str, wall: float, outcomes) -> dict:
    """What a run keeps of one pass; the curves themselves are dropped."""
    return {
        "kind": kind,
        "wall_s": wall,
        "configs": [
            {"label": o.label, "horizon": o.horizon, "digest": o.digest, "problems": o.problems}
            for o in outcomes
        ],
    }


def _warm_up(name: str, seed: int, workdir: Path) -> None:
    # Lazy imports and first-use paths are paid once per process, before timing.
    run_pass(name, seed, workdir, horizon=WARMUP_HORIZON)


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    _warm_up(name, seed, workdir)
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_PASSES or time.perf_counter() - start < seconds:
        runs.append(_summary("untraced", *run_pass(name, seed, workdir)))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "runs": runs,
        "sizes": [(WORKLOADS[name].reps, c["horizon"]) for c in runs[0]["configs"]],
        "maxrss_self_kib": own,
        "maxrss_children_kib": workers,
    }


def trace(name: str, seed: int, workdir: Path) -> dict:
    w = WORKLOADS[name]
    _warm_up(name, seed, workdir)
    wall_untraced, outcomes = run_pass(name, seed, workdir)
    runs = [_summary(f"untraced n_jobs={w.n_jobs}", wall_untraced, outcomes)]

    # Untraced and traced serial passes alternate, so a drift in machine
    # speed weighs on both sides of the overhead alike.
    serial_walls, traced_walls, tracers = [], [], []
    for i in (1, 2):
        if i == 1 and w.n_jobs == 1:
            serial_walls.append(wall_untraced)
        else:
            wall, outcomes = run_pass(name, seed, workdir, n_jobs=1)
            serial_walls.append(wall)
            runs.append(_summary(f"untraced n_jobs=1 #{i}", wall, outcomes))
        tracer = Tracer()
        restore = instrument(tracer)
        try:
            wall, outcomes = run_pass(name, seed, workdir, tracer=tracer, n_jobs=1)
        finally:
            restore()
        tracers.append(tracer)
        traced_walls.append(wall)
        runs.append(_summary(f"traced n_jobs=1 #{i}", wall, outcomes))

    first = tracers[0]
    episodes = [ns for t in tracers for ns in t.samples["harness.episode_ns"]]
    layers = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(first, episodes).items()}
    overhead = sum(traced_walls) / sum(serial_walls) - 1.0
    traced_serial = sum(traced_walls) / len(traced_walls)
    layers["harness.pool_speedup"] = {
        "value": traced_serial / (1.0 + overhead) / wall_untraced, "unit": "ratio"}
    layers["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    student = {
        policy: step_table(first, f"student/eps=0.05/{policy}")
        for policy in COMPARED_POLICIES
    } if name == "battery" else {}
    return {
        "runs": runs,
        "layers": layers,
        "counts_repeat": first.count_signature() == tracers[1].count_signature(),
        "student_eps005_us_per_step": student,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["probe", "measure", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    package_dir = Path(corrupted_bandits.__file__).resolve().parent
    if package_dir != ROOT / "src" / "corrupted_bandits":
        raise SystemExit(f"imported the package from {package_dir}, not from this checkout")
    # The presets run with beta below 4 sigma by design; the acceptance suite
    # silences the same warning.
    warnings.simplefilter("ignore", RuntimeWarning)
    args.workdir.mkdir(parents=True, exist_ok=True)

    if args.mode == "probe":
        result = {"first_step": probe(args.workload, args.seed, args.workdir)}
    elif args.mode == "measure":
        result = measure(args.workload, args.seed, args.seconds, args.workdir)
    else:
        result = trace(args.workload, args.seed, args.workdir)
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "corrupted_bandits": corrupted_bandits.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
