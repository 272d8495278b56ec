"""Paired in-process A/B timing: the per-step cost of two source trees, episode by episode.

Both trees' packages are loaded into one interpreter under different names,
so a pair of episodes runs in the same process, on the same heap, seconds
apart.  Each cell (preset, eps, policy) plays ``PAIRS`` pairs at horizon
``HORIZON``: pair ``i`` plays replication ``i`` on both sides, parent first
in even pairs and change first in odd ones.  A pair's ratio is the change's
episode time over the parent's, so a ratio below 1 means the change is faster.

Per cell it reports each side's median per-step time in microseconds, the
ratio's median and quartiles, and how many pairs each side won.  It also
checks that both sides played the same actions (a SHA-256 digest per side
over every replication); unequal digests mean the trees' RNG contracts
differ, and the cell is still timed.

The cells are criterion 5's battery (five settings by five policies),
criterion 6's weibull point (``huber_ucb`` at the preset's own beta) and the
``long-horizon`` workload's ``seq_huber_ucb`` on weibull.  Run from anywhere::

    python tools/abtime.py PARENT_SRC CHANGE_SRC --out abtime.json

Each SRC is a tree's ``src`` directory (or its package directory), whose
``harness`` has ``ExperimentConfig``, ``resolve`` and ``run_episode``.  An
A/A run (the same tree twice) shows the noise floor: on a quiet host every
median ratio lies in [0.98, 1.02] and every ratio IQR is at most 0.08.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

PAIRS, HORIZON, SEED = 20, 2000, 20240
BATTERY = [(preset, eps, policy)
           for preset, eps in (("bernoulli", 0.0), ("bernoulli", 0.03), ("bernoulli", 0.05),
                               ("student", 0.05), ("pareto", 0.05))
           for policy in ("huber_ucb", "seq_huber_ucb", "robust_ucb_catoni", "robust_ucb_mom",
                          "exp3")]
CELLS = BATTERY + [("weibull", 0.0, "huber_ucb"), ("weibull", 0.0, "seq_huber_ucb")]
# The noise floor of an A/A run: median ratio within these bounds, IQR at most AA_IQR.
AA_MEDIAN, AA_IQR = (0.98, 1.02), 0.08


def load_harness(src: Path, name: str):
    """The harness of the package under ``src``, imported as the package ``name``."""
    package = src / "corrupted_bandits" if (src / "corrupted_bandits").is_dir() else src
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent_ns: list[int], change_ns: list[int], horizon: int) -> dict:
    """Per-step medians, the paired ratio's median and quartiles, and each side's wins."""
    ratios = [change / parent for parent, change in zip(parent_ns, change_ns)]
    q1, median, q3 = quartiles(ratios)
    return {
        "parent_us_per_step": statistics.median(parent_ns) / horizon / 1e3,
        "change_us_per_step": statistics.median(change_ns) / horizon / 1e3,
        "ratio_median": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "ratio_iqr": q3 - q1,
        "parent_wins": sum(p < c for p, c in zip(parent_ns, change_ns)),
        "change_wins": sum(c < p for p, c in zip(parent_ns, change_ns)),
    }


def within_aa_gate(summary: dict) -> bool:
    lo, hi = AA_MEDIAN
    return lo <= summary["ratio_median"] <= hi and summary["ratio_iqr"] <= AA_IQR


def _timed_episode(harness, env, build, rep: int) -> tuple[int, bytes]:
    gc.collect()
    start = time.perf_counter_ns()
    result = harness.run_episode(env, build, SEED, rep)
    return time.perf_counter_ns() - start, result.actions.tobytes()


def run(parent, change, cells=CELLS, pairs: int = PAIRS, horizon: int = HORIZON) -> list[dict]:
    """Time ``pairs`` alternating pairs of episodes per cell on two loaded harness modules."""
    sides = (parent, change)
    recipes = {}
    for cell in cells:
        preset, eps, policy = cell
        recipes[cell] = [
            h.resolve(h.ExperimentConfig(env=preset, eps_true=eps, policy=policy,
                                         horizon=horizon, seed=SEED))[1:]
            for h in sides
        ]
    ns = {cell: ([], []) for cell in cells}
    digests = {cell: (hashlib.sha256(), hashlib.sha256()) for cell in cells}
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for cell in cells:
            for side in order:
                env, build = recipes[cell][side]
                elapsed, actions = _timed_episode(sides[side], env, build, pair)
                ns[cell][side].append(elapsed)
                digests[cell][side].update(actions)
    rows = []
    for cell in cells:
        preset, eps, policy = cell
        parent_digest, change_digest = (d.hexdigest() for d in digests[cell])
        rows.append({"preset": preset, "eps": eps, "policy": policy,
                     **summarize(*ns[cell], horizon),
                     "digests_equal": parent_digest == change_digest,
                     "parent_ns": ns[cell][0], "change_ns": ns[cell][1]})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--out", type=Path, default=Path("abtime.json"))
    args = parser.parse_args(argv)
    parent = load_harness(args.parent_src, "ab_parent")
    change = load_harness(args.change_src, "ab_change")
    rows = run(parent, change)
    print(f"{'cell':<34} {'parent us':>9} {'change us':>9} {'ratio':>6} {'q1':>6} {'q3':>6}"
          f" {'wins p/c':>8}")
    for row in rows:
        cell = f"{row['preset']} {row['eps']:g} {row['policy']}"
        print(f"{cell:<34} {row['parent_us_per_step']:9.2f} {row['change_us_per_step']:9.2f}"
              f" {row['ratio_median']:6.3f} {row['ratio_q1']:6.3f} {row['ratio_q3']:6.3f}"
              f" {row['parent_wins']:>4}/{row['change_wins']:<3}"
              + ("" if row["digests_equal"] else "  digests differ: the RNG contracts differ"))
    inside = sum(map(within_aa_gate, rows))
    print(f"{inside} of {len(rows)} cells inside the A/A gate (median ratio in "
          f"[{AA_MEDIAN[0]}, {AA_MEDIAN[1]}], IQR <= {AA_IQR})")
    args.out.write_text(json.dumps({
        "parent_src": str(args.parent_src), "change_src": str(args.change_src),
        "pairs": PAIRS, "horizon": HORIZON, "seed": SEED,
        "all_digests_equal": all(row["digests_equal"] for row in rows),
        "cells_inside_aa_gate": inside, "cells": rows,
    }, indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
