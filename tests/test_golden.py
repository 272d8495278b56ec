"""Frozen curves: SHA-256 digests of Monte-Carlo output and bound overlays.

Every policy on every preset at 5% corruption (plus uncorrupted Bernoulli)
is run for two seeds at a small horizon, and the mean, stderr and mean-pull
arrays are hashed bit for bit, as are the bound overlays of both robust index
policies.  The digests in ``golden_digests.json`` were recorded from the
scalar per-step engine; a change that alters any curve for a fixed
``(seed, rep)`` fails here.  The file records the ``harness.RNG_CONTRACT``
it was recorded under, and every test first checks it against the package's.
A change that breaks the RNG contract on purpose bumps that constant and
re-records the digests with::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from corrupted_bandits.envs import PRESETS
from corrupted_bandits.harness import (
    RNG_CONTRACT,
    ExperimentConfig,
    bound_overlay,
    monte_carlo_regret,
)
from corrupted_bandits.policies import POLICY_NAMES

DIGESTS = Path(__file__).with_name("golden_digests.json")
HORIZON = 300
REPS = 3
SEEDS = (0, 1)
SETTINGS = tuple((preset, 0.05) for preset in sorted(PRESETS)) + (("bernoulli", 0.0),)
OVERLAY_POLICIES = ("huber_ucb", "seq_huber_ucb")

CURVE_CASES = [
    (env, eps, policy, seed)
    for env, eps in SETTINGS
    for policy in POLICY_NAMES
    for seed in SEEDS
]
# Every overlay at 5% corruption is inf (bound inapplicable), so the
# uncorrupted presets are pinned too.
OVERLAY_CASES = [
    (env, eps, policy)
    for env in sorted(PRESETS)
    for eps in (0.0, 0.05)
    for policy in OVERLAY_POLICIES
]


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _config(env, eps, policy, seed=0):
    return ExperimentConfig(
        env=env, eps_true=eps, policy=policy, horizon=HORIZON, reps=REPS, seed=seed
    )


def curve_digests(env, eps, policy, seed) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = monte_carlo_regret(_config(env, eps, policy, seed))
    return {
        "mean": _sha(curve.mean),
        "stderr": _sha(curve.stderr),
        "mean_pulls": _sha(curve.mean_pulls),
    }


def overlay_digest(env, eps, policy) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _sha(bound_overlay(_config(env, eps, policy)))


def _curve_key(env, eps, policy, seed) -> str:
    return f"{env}/eps={eps:g}/{policy}/seed={seed}"


def _overlay_key(env, eps, policy) -> str:
    return f"{env}/eps={eps:g}/{policy}"


def _recorded() -> dict:
    data = json.loads(DIGESTS.read_text())
    assert data["contract"] == RNG_CONTRACT, (
        f"the digests were recorded under RNG contract {data['contract']} and the package "
        f"is at contract {RNG_CONTRACT}: re-record them")
    return data


@pytest.mark.parametrize("env,eps,policy,seed", CURVE_CASES,
                         ids=[_curve_key(*case) for case in CURVE_CASES])
def test_curve_digests(env, eps, policy, seed):
    expected = _recorded()["curves"][_curve_key(env, eps, policy, seed)]
    assert curve_digests(env, eps, policy, seed) == expected


@pytest.mark.parametrize("env,eps,policy", OVERLAY_CASES,
                         ids=[_overlay_key(*case) for case in OVERLAY_CASES])
def test_overlay_digests(env, eps, policy):
    expected = _recorded()["overlays"][_overlay_key(env, eps, policy)]
    assert overlay_digest(env, eps, policy) == expected


def record() -> None:
    data = {
        "contract": RNG_CONTRACT,
        "horizon": HORIZON,
        "reps": REPS,
        "curves": {_curve_key(*case): curve_digests(*case) for case in CURVE_CASES},
        "overlays": {_overlay_key(*case): overlay_digest(*case) for case in OVERLAY_CASES},
    }
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    record()
