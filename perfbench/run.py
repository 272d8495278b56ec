"""Layered Monte-Carlo benchmark of the corrupted-bandits package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one workload; with
``--trace 1`` the per-layer metrics from a separate traced run.  Human-readable
lines come first, then a ``stamp`` line, and the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record of the run goes to ``.perfbench_out/`` in the checkout.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from metrics import median, percentile, rep_steps_per_s, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "corrupted_bandits"
DIGESTS = HERE / "digests.json"
# The names of workloads.WORKLOADS, repeated because this process never
# imports the package.
WORKLOADS = ("battery", "beta-sweep", "long-horizon")
SETUP_PROBES = 5
# Every run ends within this many seconds; children are killed past it.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(mode: str, args, workdir: Path, deadline: float, extra=()) -> dict:
    """Run ``child.py`` in its own process group and parse its last stdout line."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} child passed the deadline") from None
    finally:
        # Reap any pool worker the child left behind in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(args, workdir: Path, deadline: float) -> list[float]:
    """Fresh interpreter to first episode step, once per probe."""
    values = []
    for _ in range(SETUP_PROBES):
        start = _monotonic()
        values.append(run_child("probe", args, workdir, deadline)["first_step"] - start)
    return values


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def count_failures(runs: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over every config of every run.

    A config fails when a check failed, when its digest differs from the
    first run's, or when it differs from the recorded reference.
    """
    first = {c["label"]: c["digest"] for c in runs[0]["configs"]}
    attempted = failed = 0
    reasons = []
    for run in runs:
        for config in run["configs"]:
            attempted += 1
            why = list(config["problems"])
            if config["digest"] != first.get(config["label"]):
                why.append(f"curve differs from the {runs[0]['kind']} run")
            if reference is not None and config["digest"] != reference.get(config["label"]):
                why.append("curve differs from the recorded reference digest")
            if why:
                failed += 1
                reasons.append(f"{run['kind']} {config['label']}: {'; '.join(why)}")
    return attempted, failed, reasons


def end_to_end(child: dict, setup: list[float]) -> dict:
    wall = median([r["wall_s"] for r in child["runs"]])
    peak_kib = child["maxrss_self_kib"] + child["maxrss_children_kib"]
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "rep_steps_per_s": {"value": rep_steps_per_s(child["sizes"], wall), "unit": "steps/s"},
        "setup_s": {"value": median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Layered Monte-Carlo benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's curve digests as the reference (trace 0 only)")
    args = parser.parse_args()
    deadline = _monotonic() + DEADLINE_S

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = outdir / "work"
    refs = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    reference = None if args.record else refs.get(args.workload, {}).get(str(args.seed))

    try:
        if args.trace:
            setup = []
            child = run_child("trace", args, workdir, deadline)
            metrics = child["layers"]
        else:
            setup = setup_seconds(args, workdir, deadline)
            child = run_child("measure", args, workdir, deadline,
                              extra=("--seconds", str(args.seconds)))
            metrics = end_to_end(child, setup)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, reasons = count_failures(child["runs"], reference)
    correct = failed == 0 and child.get("counts_repeat", True)
    stamp = {
        "command": [Path(sys.executable).name, *sys.argv],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        **child["versions"],
    }

    walls = [r["wall_s"] for r in child["runs"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} runs, {attempted} configs attempted, {failed} failed")
    for reason in reasons:
        print(f"  FAILED {reason}")
    if not child.get("counts_repeat", True):
        print("  FAILED count metrics differ between the two traced runs")
    if reference is None and not args.record:
        print(f"  no reference digests recorded for seed {args.seed}")
    for run in child["runs"]:
        print(f"  run {run['kind']}: {run['wall_s']:.3f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        pct = tail_percentile(len(walls))
        print(f"  wall_s is the median of {len(walls)} passes; "
              + (f"p{pct:g} = {percentile(walls, pct):.3f} s" if pct else
                 "too few passes for a tail percentile (needs 20)"))
        print(f"  setup_s is the median of {len(setup)} probes: "
              + ", ".join(f"{s:.3f}" for s in setup))
        print(f"  failed_ops_frac = {failed / attempted:.6g} frac ({failed}/{attempted} configs)")
    for policy, row in child.get("student_eps005_us_per_step", {}).items():
        print(f"  student eps=0.05 {policy}: select {row['select_us']:.1f} / "
              f"sample {row['sample_us']:.1f} / update {row['update_us']:.1f} us per step")
    print("stamp " + json.dumps(stamp))

    outdir.mkdir(parents=True, exist_ok=True)
    record = {"stamp": stamp, "setup_s": setup, "failures": reasons, **child,
              "metrics": metrics}
    (outdir / "result.json").write_text(json.dumps(record, indent=1))
    if args.record and not args.trace and correct:
        refs.setdefault(args.workload, {})[str(args.seed)] = {
            c["label"]: c["digest"] for c in child["runs"][0]["configs"]}
        DIGESTS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
