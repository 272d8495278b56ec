"""The arithmetic of ``tools/abtime.py`` on fixed inputs, and one tiny paired run."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
abtime = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtime)


def test_quartiles_interpolate_between_order_statistics():
    assert abtime.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert abtime.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert abtime.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_fixed_pairs():
    parent = [1000, 2000, 4000, 1000, 3000]
    change = [900, 2000, 5000, 800, 2400]
    s = abtime.summarize(parent, change, horizon=10)
    # ratios 0.9, 1.0, 1.25, 0.8, 0.8
    assert s["parent_us_per_step"] == 0.2 and s["change_us_per_step"] == 0.2
    assert s["ratio_median"] == 0.9
    assert (s["ratio_q1"], s["ratio_q3"]) == (0.8, 1.0)
    assert s["ratio_iqr"] == pytest.approx(0.2, abs=1e-15)
    assert (s["parent_wins"], s["change_wins"]) == (1, 3)  # the tie counts for neither


@pytest.mark.parametrize("median, iqr, inside", [
    (1.0, 0.08, True), (0.98, 0.0, True), (1.02, 0.05, True),
    (0.979, 0.01, False), (1.021, 0.01, False), (1.0, 0.081, False),
])
def test_aa_gate(median, iqr, inside):
    assert abtime.within_aa_gate({"ratio_median": median, "ratio_iqr": iqr}) is inside


def test_one_tree_loaded_twice_plays_the_same_actions():
    names = ("abtest_a", "abtest_b")
    try:
        a, b = (abtime.load_harness(ROOT / "src", name) for name in names)
        assert a is not b and a.__name__ == "abtest_a.harness"
        rows = abtime.run(a, b, cells=[("bernoulli", 0.05, "huber_ucb")], pairs=2, horizon=30)
    finally:
        for key in [k for k in sys.modules if k.partition(".")[0] in names]:
            del sys.modules[key]
    (row,) = rows
    assert row["digests_equal"] and len(row["parent_ns"]) == len(row["change_ns"]) == 2
