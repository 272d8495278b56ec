import json

import numpy as np
import pytest

from corrupted_bandits.cli import main
from corrupted_bandits.estimators import huber_estimate, mad_scale, median_of_means
from corrupted_bandits.harness import read_results


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
