"""Every name that ``src/`` defines is reached by code other than the tests.

The scan walks the AST of each package module: its module-level functions,
classes and constants, and each class's methods and properties (dunders
excepted; Python calls them).  A name counts as reached when a ``Name``, an
``Attribute`` or an import elsewhere spells it, or a string constant does
(``getattr`` by name, as ``_IndexPolicy`` reads its bonus and as
``perfbench/spans.py`` wraps methods).  The code searched is the package
outside ``__init__`` (whose re-exports reach nothing), ``perfbench/``,
``tools/`` and the README's library example.  A name reached only by the
acceptance criteria is kept on purpose and listed with its criterion.

This is a ratchet, not a proof.  Names are matched by spelling, not resolved,
so an attribute that shares its name with other code (a field such as
``gap``, ``sigma`` or ``counts``) counts as reached whatever its owner, and
instance attributes and dataclass fields are not scanned at all.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corrupted_bandits"

# Name -> the acceptance criterion (tests/test_acceptance.py) that reads it.
KEEP = {
    "concentration_radius": "criterion 3",
    "seq_concentration_radius": "criterion 3",
    "corrupted_bernoulli_pair": "criterion 4",
    "discrete_kl": "criterion 4",
    "RegretCurve.growth_ratio": "criterion 5",
}


def defined_names(tree: ast.Module):
    """Module-level functions, classes and constants, and ``Class.method`` for each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, target.id


def spelled(tree: ast.AST) -> set[str]:
    """Every identifier that a load, an attribute, an import or a string constant spells."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def readers() -> list[ast.AST]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    trees = [ast.parse(p.read_text(), str(p)) for p in sources]
    for tree in trees:  # an export list names what it exports, and reaches none of it
        tree.body = [node for node in tree.body if not _is_all(node)]
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    trees.append(ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1)))
    return trees


def package_names():
    """``(module, qualified name, name)`` for every name that the package defines."""
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name in defined_names(ast.parse(path.read_text(), str(path))):
            yield path.stem, qualified, name


def test_every_src_name_is_reached_outside_the_tests():
    reached = set().union(*map(spelled, readers()))
    only_tests = sorted(f"{module}.{qualified}" for module, qualified, name in package_names()
                        if name not in reached and qualified not in KEEP)
    assert not only_tests, f"reached only by tests: {only_tests}"


def test_every_kept_name_is_still_defined():
    assert set(KEEP) <= {qualified for _, qualified, _ in package_names()}
