"""The names perfbench's spans wrap, and how often a fixed episode reaches each.

``perfbench/spans.py`` times the package's layers by replacing names on its
modules and classes from outside.  A change that moves one of those names, or
stops calling it through the patched binding, silences a span without failing
anything else.  This test patches counting wrappers onto exactly those names
and pins the call counts of short fixed episodes.
"""

from collections import Counter

import pytest

from corrupted_bandits import confidence, envs, estimators, policies
from corrupted_bandits.harness import ExperimentConfig, resolve, run_episode
from corrupted_bandits.policies import POLICY_NAMES

# (owner, attribute) pairs as perfbench/spans.py patches them.
PATCHED = {
    "median_of_means": (policies, "median_of_means"),
    "mom_estimate": (policies.RobustUCBMOM, "_estimate"),
    "huber_root": (policies._ArmBuffer, "huber_root"),
    "huber_bonus": (confidence, "huber_bonus"),
    "seq_huber_bonus": (confidence, "seq_huber_bonus"),
    "seq_update": (estimators.SequentialHuber, "update"),
    "sample": (envs.CorruptedArm, "sample"),
}

HORIZON = 400
SEED = 7

# Calls per wrapped name in one episode on student at eps = 0.05; names not listed read 0.
EXPECTED = {
    "huber_ucb": {"huber_bonus": 1194, "huber_root": 400, "sample": 400},
    "seq_huber_ucb": {"seq_huber_bonus": 1194, "seq_update": 400, "sample": 400},
    "ucb1": {"sample": 400},
    "robust_ucb_catoni": {"huber_root": 400, "sample": 400},
    "robust_ucb_mom": {"median_of_means": 417, "mom_estimate": 1194, "sample": 400},
    "exp3": {"sample": 400},
}


def _counted(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_wrapped_names_are_called_as_pinned(policy, monkeypatch):
    counts = Counter()
    for name, (owner, attr) in PATCHED.items():
        monkeypatch.setattr(owner, attr, _counted(counts, name, getattr(owner, attr)))
    config = ExperimentConfig(env="student", eps_true=0.05, policy=policy, horizon=HORIZON)
    _, env, build = resolve(config)
    run_episode(env, build, SEED)
    assert dict(counts) == EXPECTED[policy]
