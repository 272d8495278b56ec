import argparse
import json
import warnings

import numpy as np
import pytest

from corrupted_bandits import cli
from corrupted_bandits.cli import main
from corrupted_bandits.envs import PRESETS, make_env
from corrupted_bandits.estimators import huber_estimate, mad_scale, median_of_means
from corrupted_bandits.harness import FIELD_READERS, SWEEP_AXES, read_results
from corrupted_bandits.policies import POLICY_NAMES


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=200)
    path = tmp_path / "data.txt"
    path.write_text("\n".join(format(v, ".17g") for v in values))
    return path, values


class TestRun:
    def test_run_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        rc = main(
            [
                "run",
                "--env", "bernoulli",
                "--policy", "ucb1",
                "--eps-true", "0.05",
                "--horizon", "150",
                "--reps", "3",
                "--seed", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.exists() and out.with_suffix(".meta.json").exists()
        parsed = read_results(out)
        assert parsed["ucb1"]["mean_regret"].size == 150
        assert "final regret" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "env": "bernoulli",
                    "policy": "ucb1",
                    "eps_true": 0.0,
                    "horizon": 500,
                    "reps": 2,
                    "seed": 7,
                }
            )
        )
        out = tmp_path / "res.csv"
        rc = main(
            ["run", "--config", str(cfg_path), "--horizon", "120", "--out", str(out)]
        )
        assert rc == 0
        parsed = read_results(out)
        assert parsed["ucb1"]["mean_regret"].size == 120

    def test_overlay_column(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = main(
            [
                "run",
                "--env", "pareto",
                "--policy", "huber_ucb",
                "--eps-true", "0.0",
                "--beta-mult", "4.0",
                "--horizon", "80",
                "--reps", "2",
                "--seed", "3",
                "--overlay",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text().splitlines()[0].endswith("bound_overlay")

    def test_overlay_without_bound_exits_before_running(self, tmp_path):
        out = tmp_path / "res.csv"
        argv = ["run", "--policy", "ucb1", "--horizon", "50", "--reps", "1",
                "--overlay", "--out", str(out)]
        with pytest.raises(SystemExit, match="--overlay"):
            main(argv)
        assert not out.exists()
        assert not out.with_suffix(".meta.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--config", "{config}"], ["--horizon", "0"], ["--policy", "nosuch"]],
        ids=["unknown-config-key", "zero-horizon", "unknown-policy"],
    )
    def test_invalid_config_exits_before_running(self, tmp_path, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"horizn": 30}))
        out = tmp_path / "res.csv"
        argv = ["run", *(f.format(config=cfg_path) for f in flags), "--reps", "1",
                "--out", str(out)]
        with pytest.raises(SystemExit, match="invalid config"):
            main(argv)
        assert not out.exists()


class TestSweep:
    def test_sweep_emits_one_curve_per_value(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--env", "weibull",
                "--policy", "huber_ucb",
                "--horizon", "100",
                "--reps", "2",
                "--seed", "4",
                "--axis", "beta_mult",
                "--values", "2,4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        parsed = read_results(out)
        assert len(parsed) == 2
        assert capsys.readouterr().out.count("final regret") == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--policy", "nosuch", "--axis", "beta_mult", "--values", "1,2"],
            ["--policy", "huber_ucb", "--axis", "eps_true", "--values", "0.7"],
            ["--policy", "huber_ucb", "--axis", "beta_mult", "--values", "-1"],
            ["--policy", "huber_ucb", "--axis", "beta_mult", "--values", "1,x"],
        ],
        ids=["unknown-policy", "eps-out-of-range", "negative-beta-mult", "non-numeric-value"],
    )
    def test_rejected_sweep_exits_before_running(self, tmp_path, flags):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--horizon", "10", "--reps", "1", *flags, "--out", str(out)])
        message = exc.value.code
        assert isinstance(message, str) and message and "\n" not in message
        assert not out.exists()

    def test_overlay_exits_before_running(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--policy", "huber_ucb", "--horizon", "30", "--reps", "1",
                "--overlay", "--axis", "beta_mult", "--values", "1,2", "--out", str(out)]
        with pytest.raises(SystemExit, match="overlay"):
            main(argv)
        assert not out.exists()


def _sidecar_arms(out):
    return [c["arms"] for c in json.loads(out.with_suffix(".meta.json").read_text())["curves"]]


class TestValidityAsData:
    """beta < 4 sigma and a nonpositive shifted gap are output values, never warnings."""

    @pytest.mark.parametrize("policy", ["huber_ucb", "seq_huber_ucb"])
    @pytest.mark.parametrize("env", sorted(PRESETS))
    def test_overlay_run_warns_nothing(self, tmp_path, env, policy):
        out = tmp_path / "res.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eps in ("0", "0.05"):
                assert main(["run", "--env", env, "--policy", policy, "--eps-true", eps,
                             "--horizon", "50", "--reps", "1", "--overlay",
                             "--out", str(out)]) == 0
                (arms,) = _sidecar_arms(out)
                assert len(arms) == make_env(env, 0.0).k

    @pytest.mark.parametrize("env, valid", [("bernoulli", False), ("weibull", True)])
    def test_sidecar_flags_each_arm(self, tmp_path, env, valid):
        out = tmp_path / "res.csv"
        main(["run", "--env", env, "--policy", "huber_ucb", "--horizon", "20", "--reps", "1",
              "--out", str(out)])
        (arms,) = _sidecar_arms(out)
        sigmas = make_env(env, 0.0).sigmas
        assert [a["beta_valid"] for a in arms] == [valid] * len(sigmas)
        assert [a["sigma"] for a in arms] == pytest.approx(list(sigmas))
        assert all(a["beta"] >= 4.0 * a["sigma"] for a in arms) is valid

    def test_sidecar_flags_follow_the_sweep_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--env", "weibull", "--policy", "seq_huber_ucb", "--horizon", "20",
              "--reps", "1", "--axis", "beta_mult", "--values", "1,4", "--out", str(out)])
        below, at = _sidecar_arms(out)
        assert [a["beta_valid"] for a in below] == [False] * 3
        assert [a["beta_valid"] for a in at] == [True] * 3

    def test_other_policies_list_no_arms(self, tmp_path):
        out = tmp_path / "res.csv"
        main(["run", "--policy", "ucb1", "--horizon", "20", "--reps", "1", "--out", str(out)])
        assert _sidecar_arms(out) == [[]]


class TestBounds:
    def test_kl_table(self, tmp_path):
        out = tmp_path / "kl.csv"
        rc = main(["bounds", "--table", "kl", "--out", str(out), "--points", "20"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gap,exact_kl,uniform_bound,high_regime_bound,low_regime"
        assert len(lines) == 21
        for line in lines[1:]:
            fields = line.split(",")
            exact, uniform = float(fields[1]), float(fields[2])
            assert exact <= uniform + 1e-12
            if fields[3]:
                assert exact <= float(fields[3]) + 1e-12

    def test_pulls_table(self, tmp_path):
        out = tmp_path / "pulls.csv"
        rc = main(["bounds", "--table", "pulls", "--out", str(out), "--points", "5"])
        assert rc == 0
        assert len(out.read_text().splitlines()) > 5


class TestEstimate:
    def test_huber(self, data_file, capsys):
        path, values = data_file
        rc = main(["estimate", str(path), "--estimator", "huber", "--beta", "2.5"])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == huber_estimate(values, 2.5)

    def test_mad(self, data_file, capsys):
        path, values = data_file
        rc = main(["estimate", str(path), "--estimator", "mad"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == mad_scale(values)

    def test_mom_default_blocks(self, data_file, capsys):
        # 200 samples: ceil(8 ln 200) = 43 blocks
        path, values = data_file
        rc = main(["estimate", str(path), "--estimator", "mom"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == format(median_of_means(values, 43), ".17g")

    @pytest.mark.parametrize("blocks", ["5", "-1"])
    def test_mom_blocks_out_of_range_exits(self, tmp_path, blocks):
        path = tmp_path / "three.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        with pytest.raises(SystemExit, match="--blocks"):
            main(["estimate", str(path), "--estimator", "mom", "--blocks", blocks])

    @pytest.mark.parametrize("estimator", ["seqhub", "catoni", "mom", "mean", "median"])
    def test_other_estimators_smoke(self, data_file, capsys, estimator):
        path, _ = data_file
        rc = main(["estimate", str(path), "--estimator", estimator])
        assert rc == 0
        float(capsys.readouterr().out.strip())


def _exits_with_one_line(argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str) and message and "\n" not in message
    return message


@pytest.fixture
def no_runs(monkeypatch):
    """Make any Monte-Carlo run through the CLI fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI started a run")

    monkeypatch.setattr(cli, "monte_carlo_regret", refuse)
    monkeypatch.setattr(cli, "sweep", refuse)


class TestBoundaryExits:
    @pytest.mark.parametrize("content", [None, "", "1.0\nabc\n"], ids=["missing", "empty", "non-numeric"])
    def test_estimate_bad_data_file(self, tmp_path, content):
        path = tmp_path / "data.txt"
        if content is not None:
            path.write_text(content)
        assert _exits_with_one_line(["estimate", str(path)]).startswith("invalid data file")

    @pytest.mark.parametrize(
        "flags",
        [["--eps", "0"], ["--eps", "0.5"], ["--eps=-0.1"], ["--gap-min", "0"], ["--gap-min=-1"]],
        ids=["eps-0", "eps-half", "eps-negative", "gap-min-0", "gap-min-negative"],
    )
    def test_kl_table_out_of_range(self, tmp_path, flags):
        out = tmp_path / "kl.csv"
        _exits_with_one_line(["bounds", "--table", "kl", "--out", str(out), *flags])
        assert not out.exists()

    @pytest.mark.parametrize("table", ["kl", "pulls"])
    def test_zero_points(self, tmp_path, table):
        out = tmp_path / "t.csv"
        assert "--points" in _exits_with_one_line(
            ["bounds", "--table", table, "--points", "0", "--out", str(out)])
        assert not out.exists()

    def test_pulls_table_zero_horizon(self, tmp_path):
        out = tmp_path / "pulls.csv"
        _exits_with_one_line(["bounds", "--table", "pulls", "--horizon", "0", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "{\"env\": "], ids=["missing", "malformed"])
    def test_bad_config_file(self, tmp_path, no_runs, content):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        out = tmp_path / "res.csv"
        message = _exits_with_one_line(["run", "--config", str(cfg_path), "--out", str(out)])
        assert message.startswith("invalid config")
        assert not out.exists()

    @pytest.mark.parametrize(
        "entries, words",
        [
            ({"policy": "exp3", "exp3_clip": [1, 0]}, "nondegenerate"),
            ({"policy": "exp3", "exp3_clip": [0, 1, 2]}, "a pair"),
            ({"policy": "exp3", "exp3_clip": [-float("inf"), float("inf")]}, "finite width"),
            ({"policy": "ucb1", "horizon": 20.5}, "horizon must be an integer"),
            ({"policy": "ucb1", "seed": 1.5}, "seed must be an integer"),
            ({"policy": "huber_ucb", "p_mode": "explicit", "p_value": 1e-200}, "(p - 5 eps)^2 > 0"),
            ({"policy": "ucb1", "bias_rule": "none"}, "bias_rule must be one of"),
        ],
        ids=["clip-reversed", "clip-three", "clip-infinite", "horizon-fraction", "seed-fraction",
             "p-underflow", "bias-rule-unknown"],
    )
    def test_config_file_value_exits_before_running(self, tmp_path, no_runs, entries, words):
        # Each of these used to fail inside the first episode, with a traceback.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"horizon": 20, "reps": 1, **entries}))
        out = tmp_path / "res.csv"
        message = _exits_with_one_line(["run", "--config", str(cfg_path), "--out", str(out)])
        assert message.startswith("invalid config") and words in message
        assert not out.exists()

    @pytest.mark.parametrize(
        "entries, words",
        [
            ({"policy": "ucb1", "out": 5}, "out must be a path string"),
            ({"policy": "ucb1", "overlay": "false"}, "overlay must be true or false"),
            ({"policy": "huber_ucb", "overlay": 1}, "overlay must be true or false"),
        ],
        ids=["out-number", "overlay-string", "overlay-number"],
    )
    def test_config_file_out_and_overlay_types(self, tmp_path, no_runs, entries, words):
        # A numeric out failed in write_results after the whole run; "false" was truthy.
        out = tmp_path / "res.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"horizon": 20, "reps": 1, "out": str(out), **entries}))
        message = _exits_with_one_line(["run", "--config", str(cfg_path)])
        assert message.startswith("invalid config") and words in message
        assert not out.exists()

    def test_negative_seed(self, tmp_path, no_runs):
        out = tmp_path / "res.csv"
        argv = ["run", "--policy", "ucb1", "--horizon", "10", "--reps", "1", "--seed", "-1",
                "--out", str(out)]
        assert "seed" in _exits_with_one_line(argv)
        assert not out.exists()


# Every flag that a bounds table or an estimator does not read, with a value to give it.
IGNORED_BOUNDS_FLAGS = [
    ("pulls", "--sigma", "7"), ("pulls", "--eps", "0.3"),
    ("pulls", "--gap-min", "5"), ("pulls", "--gap-max", "9"),
    ("kl", "--horizon", "100"),
]
_NO_FLAGS = ["--beta", "--sigma", "--scale", "--blocks"]
IGNORED_ESTIMATE_FLAGS = [
    *[("huber", flag) for flag in ("--sigma", "--scale", "--blocks")],
    *[("seqhub", flag) for flag in ("--sigma", "--scale", "--blocks")],
    *[("catoni", flag) for flag in ("--beta", "--blocks")],
    *[("mom", flag) for flag in ("--beta", "--sigma", "--scale")],
    *[(name, flag) for name in ("mean", "median", "mad") for flag in _NO_FLAGS],
]


class TestIgnoredFlags:
    @pytest.mark.parametrize("table, flag, value", IGNORED_BOUNDS_FLAGS)
    def test_bounds_flag_the_table_ignores_exits(self, tmp_path, table, flag, value):
        out = tmp_path / "t.csv"
        message = _exits_with_one_line(
            ["bounds", "--table", table, flag, value, "--out", str(out)])
        assert message == f"bounds --table {table} does not read {flag}"
        assert not out.exists()

    @pytest.mark.parametrize("estimator, flag", IGNORED_ESTIMATE_FLAGS)
    def test_estimate_flag_the_estimator_ignores_exits(self, data_file, capsys, estimator, flag):
        path, _ = data_file
        message = _exits_with_one_line(["estimate", str(path), "--estimator", estimator, flag, "2"])
        assert message == f"estimate --estimator {estimator} does not read {flag}"
        assert capsys.readouterr().out == ""

    def test_each_function_is_given_only_the_flags_it_names(self, data_file, monkeypatch):
        path, _ = data_file
        monkeypatch.setitem(cli.ESTIMATORS, "mean", (lambda data, args: args.beta, ()))
        with pytest.raises(AttributeError, match="beta"):
            main(["estimate", str(path), "--estimator", "mean"])
        monkeypatch.setitem(cli._TABLES, "pulls", (cli._pulls_table, ("points",)))
        with pytest.raises(AttributeError, match="horizon"):
            main(["bounds", "--table", "pulls", "--out", str(path.parent / "t.csv")])

    @pytest.mark.parametrize("table, given", [
        ("kl", ["--sigma", "1", "--eps", "0.2", "--gap-min", "0.01", "--gap-max", "4",
                "--points", "50"]),
        ("pulls", ["--points", "50", "--horizon", "5000"]),
    ])
    def test_bounds_defaults_are_the_read_flags_given(self, tmp_path, table, given):
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        main(["bounds", "--table", table, "--out", str(default)])
        main(["bounds", "--table", table, *given, "--out", str(explicit)])
        assert default.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("estimator, given", [
        ("huber", ["--beta", "1"]), ("seqhub", ["--beta", "1"]),
        ("catoni", ["--sigma", "1", "--scale", "1"]), ("mom", ["--blocks", "0"]),
    ])
    def test_estimate_defaults_are_the_read_flags_given(self, data_file, capsys, estimator, given):
        path, _ = data_file
        main(["estimate", str(path), "--estimator", estimator])
        default = capsys.readouterr().out
        main(["estimate", str(path), "--estimator", estimator, *given])
        assert capsys.readouterr().out == default



class TestFieldsThePolicyDoesNotRead:
    # At the parent each of these ran and recorded the setting in its sidecar,
    # though the policy never read it (sweep axes: one identical curve per value).
    @pytest.mark.parametrize("policy, field, value", [
        ("ucb1", "beta_mult", 7.0),
        ("robust_ucb_mom", "eps_assumed", 0.3),
        ("exp3", "bias_rule", "second_moment"),
        ("ucb1", "p_mode", "bogus"),
        ("robust_ucb_catoni", "p_value", 0.9),
        ("huber_ucb", "exp3_clip", [0.0, 1.0]),
    ])
    def test_config_entry_exits(self, tmp_path, no_runs, policy, field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"policy": policy, "horizon": 20, "reps": 1, field: value}))
        out = tmp_path / "res.csv"
        message = _exits_with_one_line(["run", "--config", str(cfg_path), "--out", str(out)])
        assert message == f"policy {policy} does not read {field}"
        assert not out.exists()

    @pytest.mark.parametrize("policy, flag, field", [
        ("ucb1", "--beta-mult", "beta_mult"),
        ("exp3", "--eps-assumed", "eps_assumed"),
    ])
    def test_run_flag_exits(self, tmp_path, no_runs, policy, flag, field):
        out = tmp_path / "res.csv"
        message = _exits_with_one_line(["run", "--policy", policy, "--horizon", "20", "--reps",
                                        "1", flag, "0.3", "--out", str(out)])
        assert message == f"policy {policy} does not read {field}"
        assert not out.exists()

    @pytest.mark.parametrize("policy, axis", [("exp3", "beta_mult"), ("ucb1", "eps_assumed")])
    def test_sweep_axis_exits(self, tmp_path, no_runs, policy, axis):
        out = tmp_path / "sweep.csv"
        message = _exits_with_one_line(["sweep", "--env", "bernoulli", "--policy", policy,
                                        "--horizon", "20", "--reps", "1", "--axis", axis,
                                        "--values", "0.01,0.02", "--out", str(out)])
        assert message == f"policy {policy} does not read {axis}"
        assert not out.exists()

    @pytest.mark.parametrize("mode", [{}, {"p_mode": "exact"}], ids=["chebyshev", "exact"])
    def test_p_value_outside_the_explicit_mode_exits(self, tmp_path, no_runs, mode):
        # At the parent the run ignored p_value and recorded it in its sidecar.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"env": "student", "policy": "huber_ucb", "horizon": 20,
                                        "reps": 1, "p_value": 0.9, **mode}))
        out = tmp_path / "res.csv"
        message = _exits_with_one_line(["run", "--config", str(cfg_path), "--out", str(out)])
        p_mode = mode.get("p_mode", "chebyshev")
        assert message == f"policy huber_ucb in p_mode {p_mode} does not read p_value"
        assert not out.exists()

    @pytest.mark.parametrize("entries, named", [
        ({"sweep_axis": "beta_mult", "sweep_values": [0.5, 16]}, "sweep_axis, sweep_values"),
        ({"sweep_axis": "beta_mult"}, "sweep_axis"),
    ], ids=["axis-and-values", "axis"])
    def test_run_exits_on_sweep_entries(self, tmp_path, no_runs, entries, named):
        # At the parent run wrote the CSV of the run without them.
        cfg_path = tmp_path / "sw.json"
        cfg_path.write_text(json.dumps(entries))
        out = tmp_path / "res.csv"
        message = _exits_with_one_line(["run", "--config", str(cfg_path), "--env", "student",
                                        "--policy", "huber_ucb", "--horizon", "20", "--reps",
                                        "1", "--out", str(out)])
        assert message == f"run does not read {named}; use sweep"
        assert not out.exists()

    def test_a_sweep_sidecar_config_sweeps_again(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        axis = ["--axis", "beta_mult", "--values", "0.5,16"]
        main(["sweep", "--env", "student", "--policy", "huber_ucb", "--horizon", "20",
              "--reps", "1", *axis, "--out", str(first)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            json.loads(first.with_suffix(".meta.json").read_text())["config"]))
        assert main(["sweep", "--config", str(cfg_path), *axis, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        with pytest.raises(SystemExit, match="^run does not read sweep_axis, sweep_values"):
            main(["run", "--config", str(cfg_path), "--out", str(second)])

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_a_sidecar_config_runs_again(self, tmp_path, policy):
        # Unset fields are written at their defaults, which count as not set.
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        main(["run", "--policy", policy, "--horizon", "20", "--reps", "1", "--out", str(first)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            json.loads(first.with_suffix(".meta.json").read_text())["config"]))
        assert main(["run", "--config", str(cfg_path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_field_a_policy_reads_is_accepted(self, tmp_path, policy):
        values = {"beta_mult": 2.0, "eps_assumed": 0.01, "bias_rule": "second_moment",
                  "p_mode": "explicit", "p_value": 0.9, "exp3_clip": [0.0, 1.0]}
        read = {f: v for f, v in values.items() if policy in FIELD_READERS[f]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"policy": policy, "horizon": 20, "reps": 1, **read}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 0


class TestNonFiniteFlags:
    @pytest.mark.parametrize("estimator", ["huber", "seqhub"])
    def test_estimate_nan_beta(self, data_file, estimator):
        path, _ = data_file
        message = _exits_with_one_line(["estimate", str(path), "--estimator", estimator,
                                        "--beta", "nan"])
        assert "beta must be finite and positive" in message

    def test_run_infinite_beta_mult(self, tmp_path, no_runs):
        out = tmp_path / "res.csv"
        argv = ["run", "--policy", "huber_ucb", "--horizon", "10", "--reps", "1",
                "--beta-mult", "inf", "--out", str(out)]
        assert "beta_mult must be finite and positive" in _exits_with_one_line(argv)
        assert not out.exists()

    def test_run_nan_beta_mult_without_huber(self, tmp_path, no_runs):
        # ucb1 never reads beta_mult; the config still rejects it, so the
        # sidecar never records a nan.
        out = tmp_path / "res.csv"
        argv = ["run", "--policy", "ucb1", "--horizon", "10", "--reps", "1",
                "--beta-mult", "nan", "--out", str(out)]
        assert "beta_mult must be finite and positive" in _exits_with_one_line(argv)
        assert not out.exists()

    def test_sweep_nan_beta_mult(self, tmp_path, no_runs):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--policy", "huber_ucb", "--horizon", "10", "--reps", "1",
                "--axis", "beta_mult", "--values", "1,nan", "--out", str(out)]
        assert "beta_mult must be finite and positive" in _exits_with_one_line(argv)
        assert not out.exists()


class TestFlagsFollowTheConfig:
    RUN_FLAGS = {
        "env": "student", "policy": "huber_ucb", "eps_true": 0.03, "eps_assumed": 0.04,
        "beta_mult": 2.5, "horizon": 12, "reps": 2, "seed": 9, "overlay": True,
    }

    @staticmethod
    def _options(command):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {a.dest: a.option_strings[0] for a in sub.choices[command]._actions
                if a.option_strings and a.dest != "help"}

    def test_every_run_flag_lands_in_the_sidecar(self, tmp_path):
        out = tmp_path / "res.csv"
        options = self._options("run")
        # --config feeds the other fields; --jobs is how a run executes, not what it is.
        assert set(options) - {"config", "jobs"} == set(self.RUN_FLAGS) | {"out"}
        argv = ["run", "--out", str(out)]
        for dest, value in self.RUN_FLAGS.items():
            argv += [options[dest]] if value is True else [options[dest], str(value)]
        assert main(argv) == 0
        config = json.loads(out.with_suffix(".meta.json").read_text())["config"]
        assert {dest: config[dest] for dest in self.RUN_FLAGS} == self.RUN_FLAGS
        assert config["out"] == str(out)

    def test_every_sweep_flag_lands_in_the_sidecar(self, tmp_path):
        out = tmp_path / "sweep.csv"
        flags = {**self.RUN_FLAGS, "overlay": None}
        options = self._options("sweep")
        assert set(options) - {"config", "jobs"} == set(flags) | {"out", "axis", "values"}
        argv = ["sweep", "--out", str(out), "--axis", "eps_assumed", "--values", "0.01,0.02"]
        for dest, value in flags.items():
            if value is not None:
                argv += [options[dest], str(value)]
        assert main(argv) == 0
        config = json.loads(out.with_suffix(".meta.json").read_text())["config"]
        assert {dest: config[dest] for dest in flags if flags[dest] is not None} == {
            dest: value for dest, value in flags.items() if value is not None}
        assert (config["sweep_axis"], config["sweep_values"]) == ("eps_assumed", [0.01, 0.02])

    def test_choices_come_from_their_tables(self, monkeypatch):
        monkeypatch.setitem(PRESETS, "extra", PRESETS["student"])
        monkeypatch.setattr(cli, "SWEEP_AXES", (*SWEEP_AXES, "extra"))
        monkeypatch.setitem(cli.ESTIMATORS, "extra", (lambda data, args: 0.0, ()))
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

        def choices(command, dest):
            action = next(a for a in sub.choices[command]._actions if a.dest == dest)
            return list(action.choices)

        assert choices("run", "env") == choices("sweep", "env") == list(PRESETS)
        assert choices("sweep", "axis") == [*SWEEP_AXES, "extra"]
        assert choices("estimate", "estimator") == list(cli.ESTIMATORS)
        assert "extra" in choices("estimate", "estimator")
