"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload battery --seeds 0-9

Runs the benchmark once per seed with tracing off and the ``run_seconds``
of BENCHMARK.json, then prints each end-to-end metric's median and its
quartile spread as a share of the median, against a third of its bound.
Every run's result line is appended to ``.perfbench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import median, relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)

    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with log.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        ok &= result["correct"] and result["failed"] == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={vals[-1]:.6g}" for name, vals in values.items()), flush=True)

    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        spread = relative_spread(vals) if len(vals) > 1 else float("nan")
        steady = spread < metric["bound"] / 3
        if metric["name"] != "setup_s":
            ok &= steady
        print(f"{metric['name']:16s} median {median(vals):.6g} {metric['unit']}  "
              f"spread {spread:.4f}  (a third of the bound: {metric['bound'] / 3:.4f}"
              f"{'' if steady else ', EXCEEDED'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
