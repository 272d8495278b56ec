"""Mutation testing with the standard library: which one-token changes do the tests miss?

Each mutant makes one change inside a chosen function or class of a package
module: it flips a comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==``
and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``), swaps ``+`` and
``-`` or ``*`` and ``/`` (augmented assignments too), or bumps a numeric
constant (an int by one, a float by one at zero and doubled elsewhere).
``--max N`` runs N sites sampled with the fixed ``SEED``; without it every
site runs.  Every mutant runs in one temporary
copy of ``src/``, ``tests/`` and what the tests read (``tools/``,
``README.md``), never in the checkout, under
``pytest -x -q -m "not acceptance"``; a mutant survives when that passes.
The survivors go to a JSON list of ``file:line``, operator and source line.

Run from the repository root, for example::

    python tools/mutate.py policies.py:_BasePolicy policies.py:Exp3.update \\
        --max 40 --out mutants.json

A target is ``module.py`` (every function) or ``module.py:Name[.method]``.
``tools/survivors.json`` keeps each committed run's survivors, each with the
test that now kills it or the reason it is equivalent.
"""

from __future__ import annotations

import argparse
import ast
import copy as copying
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/corrupted_bandits")
SEED = 1  # of the site sample that --max draws
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "-m", "not acceptance"]

COMPARE_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BINOP_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}


@dataclass(frozen=True)
class Site:
    file: str
    line: int
    operator: str
    source: str
    # Position of the node among the module's nodes in ast.walk order, and of
    # the comparison operator within its chain.
    node: int
    slot: int = 0


def _bumped(value):
    if isinstance(value, int):
        return value + 1
    return 1.0 if value == 0.0 else value * 2.0


def _mutation(node: ast.AST, slot: int) -> str | None:
    """Apply the site's change to ``node`` in place and name it; None if the node has none."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[slot])
        node.ops[slot] = COMPARE_FLIPS[old]()
        return f"{old.__name__} -> {COMPARE_FLIPS[old].__name__}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOP_SWAPS:
        old = type(node.op)
        node.op = BINOP_SWAPS[old]()
        return f"{old.__name__} -> {BINOP_SWAPS[old].__name__}"
    if (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)):
        old, node.value = node.value, _bumped(node.value)
        return f"{old!r} -> {node.value!r}"
    return None


def _spans(tree: ast.Module, names: list[str]) -> list[tuple[int, int]]:
    """Line spans of the named top-level functions, classes or ``Class.method``s."""
    spans = []
    for name in names:
        owner, _, member = name.partition(".")
        for node in tree.body:
            if getattr(node, "name", None) != owner:
                continue
            if member:
                node = next(n for n in node.body if getattr(n, "name", None) == member)
            spans.append((node.lineno, node.end_lineno))
            break
        else:
            raise SystemExit(f"no {name} in the module")
    return spans


def collect_sites(file: str, names: list[str]) -> list[Site]:
    """Every mutation site inside a function body of ``file`` (or of the named parts)."""
    path = ROOT / PACKAGE / file
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    if names:
        spans = _spans(tree, names)
    else:
        spans = [(n.lineno, n.end_lineno) for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {
        id(n.body[0].value) for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.ClassDef, ast.Module)) and n.body
        and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)
    }
    sites = []
    for index, node in enumerate(ast.walk(tree)):
        line = getattr(node, "lineno", None)
        if line is None or id(node) in docstrings:
            continue
        if not any(lo < line <= hi for lo, hi in spans):  # the def line itself holds defaults
            continue
        slots = range(len(node.ops)) if isinstance(node, ast.Compare) else [0]
        for slot in slots:
            operator = _mutation(copying.deepcopy(node), slot)
            if operator is not None:
                sites.append(Site(file, line, operator, lines[line - 1].strip(), index, slot))
    return sites


def mutant_source(site: Site, text: str) -> str:
    """``text``, the source of ``site.file``, with the site's change applied."""
    tree = ast.parse(text)
    _mutation(list(ast.walk(tree))[site.node], site.slot)
    return ast.unparse(tree) + "\n"


def run_suite(copy: Path, timeout: float) -> tuple[bool, float]:
    """Whether the suite passes in ``copy``, and its seconds; a timeout counts as a failure."""
    start = time.perf_counter()
    # No bytecode cache: two mutants of one file can share its size and mtime second.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, timeout=timeout)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="module.py or module.py:Name[.method]")
    parser.add_argument("--max", type=int, default=0, help="sample at most this many sites (0: all)")
    parser.add_argument("--out", type=Path, default=Path("mutants.json"))
    parser.add_argument("--tmp", type=Path, default=None, help="where the temporary copy goes")
    args = parser.parse_args(argv)

    by_file: dict[str, list[str]] = {}
    for target in args.targets:
        file, _, name = target.partition(":")
        by_file.setdefault(file, []).extend([name] if name else [])
    sites = [s for file, names in by_file.items() for s in collect_sites(file, names)]
    if args.max and args.max < len(sites):
        sites = random.Random(SEED).sample(sites, args.max)
    sites.sort(key=lambda s: (s.file, s.line, s.node, s.slot))

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "tools", "README.md", "pyproject.toml"):
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / part)
        passed, base = run_suite(copy, timeout=3600)
        if not passed:
            raise SystemExit("the unmutated suite fails in the copy; no mutant can be judged")
        print(f"unmutated suite: {base:.0f} s; {len(sites)} mutants", flush=True)
        survivors = []
        for i, site in enumerate(sites, 1):
            target = copy / PACKAGE / site.file
            original = target.read_text()
            target.write_text(mutant_source(site, original))
            try:
                survived, seconds = run_suite(copy, timeout=3 * base + 60)
            finally:
                target.write_text(original)
            verdict = "SURVIVED" if survived else "killed"
            print(f"[{i}/{len(sites)}] {verdict:8} {seconds:5.0f} s  "
                  f"{site.file}:{site.line}  {site.operator}  {site.source}", flush=True)
            if survived:
                survivors.append(site)
    report = {
        "targets": args.targets,
        "mutants": len(sites),
        "killed": len(sites) - len(survivors),
        "survivors": [
            {k: v for k, v in asdict(s).items() if k not in ("node", "slot")} for s in survivors
        ],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"killed {report['killed']}/{report['mutants']} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
