"""What ``import corrupted_bandits`` loads, in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import corrupted_bandits

# Loaded only by the calls that need them: scipy by the exact p mode, fractions
# (which loads decimal) by the Bernoulli lower bound, hypothesis by the tests.
DEFERRED = ("scipy", "fractions", "decimal", "hypothesis")


def test_package_import_defers_heavy_modules():
    root = str(Path(corrupted_bandits.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import corrupted_bandits; "
        f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {DEFERRED!r}))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
