import json
import warnings
from pathlib import Path

import pytest

from adasig import cli, config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_config(**overrides):
    """One-class linear experiment scaled down for fast CLI tests."""
    raw = json.loads((CONFIG_DIR / "one_class_linear.json").read_text())
    raw["prototype"]["gamma"] = 0.09
    raw["simulation"]["horizon"] = 150.0
    raw["decision"]["T_star"] = 5.0
    raw["decision"]["theta_bound"] = 0.1
    raw["sweep"] = {"grid": [1.6]}
    for key, val in overrides.items():
        if isinstance(val, dict):
            raw.setdefault(key, {}).update(val)
        else:
            raw[key] = val
    return raw


def write_config(tmp_path, raw, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfigParsing:
    def test_hash_stable_under_key_order(self):
        assert config.config_hash({"a": 1, "b": 2}) == config.config_hash({"b": 2, "a": 1})

    def test_missing_sections_rejected(self):
        with pytest.raises(ValueError):
            config.load_config({"classes": []})

    def test_true_theta_out_of_range_rejected(self):
        raw = small_config()
        raw["true"]["theta"] = 5.0
        with pytest.raises(ValueError):
            config.load_config(raw)

    def test_readback_must_contain_range(self):
        raw = small_config()
        raw["prototype"]["a"] = 1.5
        with pytest.raises(ValueError):
            config.load_config(raw)

    def test_inadmissible_gamma_clamped(self):
        raw = small_config(prototype={"gamma": 10.0})
        cfg = config.load_config(raw)
        with pytest.warns(UserWarning):
            configs = cfg.class_configs()
        assert configs[0].gamma < 10.0

    @pytest.mark.parametrize("simulation", [
        {"horizon": 150.005},  # 15000.5 steps of dt = 0.01
        {"record_every": 7},  # does not divide 15000 steps
        {"record_every": 0},
        {"dt": 0.0},
    ])
    def test_bad_grid_rejected(self, simulation):
        with pytest.raises(ValueError):
            config.load_config(small_config(simulation=simulation))

    def test_grid_within_relative_tolerance_accepted(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        cfg = config.load_config(small_config(simulation={"horizon": 0.3, "dt": 0.1,
                                                          "record_every": 3}))
        assert cfg.simulation_grid() == (0.3, 0.1, 3)

    def test_sub_seed_distinct(self):
        assert config.sub_seed(0, "noise") != config.sub_seed(0, "fit_0")
        assert config.sub_seed(0, "noise") == config.sub_seed(0, "noise")


class TestExitCodes:
    def test_malformed_file_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["tune", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert cli.main(["tune", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 1

    def test_usage_error_exits_1(self, tmp_path, capsys):
        assert cli.main(["tune"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["tune", "simulate", "report"])
    def test_infeasible_tuning_exits_2(self, tmp_path, capsys, command):
        # unclamped gamma above the supremum: budget denominator goes negative
        raw = small_config(prototype={"gamma": 0.2, "clamp_gamma": False})
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main([command, "--config", path, "--out", str(tmp_path)])
        assert code == 2
        assert "infeasible tuning" in capsys.readouterr().err

    @pytest.mark.parametrize("simulation,extra", [
        ({"horizon": 150.005}, []),
        ({"record_every": 7}, []),
        ({}, ["--dt", "0.007"]),  # 21428.6 steps
        ({}, ["--dt", "0.4"]),  # 375 steps, not a multiple of record_every = 10
    ])
    def test_bad_grid_exits_1(self, tmp_path, capsys, simulation, extra):
        path = write_config(tmp_path, small_config(simulation=simulation))
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path), *extra]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "tuning.json").exists()

    def test_diverged_integration_exits_1(self, tmp_path, capsys):
        # a stiff plant (slope 100) with dt = 0.1 leaves RK4's stability region
        raw = json.loads((CONFIG_DIR / "one_class_linear.json").read_text())
        raw["plant"].update(phi="linear", slope=100.0, phi_min=100.0, phi_max=100.0)
        raw["simulation"]["dt"] = 0.1
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error line is the only report
            code = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: integration diverged at t=0.2\n"

    def test_diverged_sine_family_prints_no_warning(self, tmp_path, capsys):
        # sin of an overflowed estimate is nan before the step's finite check
        raw = json.loads((CONFIG_DIR / "one_class_linear.json").read_text())
        raw["classes"][0]["family"] = "sine"
        raw["plant"].update(phi="linear", slope=30.0, phi_min=30.0, phi_max=30.0)
        raw["simulation"]["dt"] = 0.1
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: integration diverged at t=2.2\n"

    def test_not_entered_exits_3(self, tmp_path, capsys):
        raw = small_config()
        raw["simulation"]["horizon"] = 0.5
        raw["decision"]["T_star"] = 0.2
        raw["decision"]["theta_bound"] = 1e-9
        path = write_config(tmp_path, raw)
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 3
        capsys.readouterr()

    def test_degenerate_persistency_exits_4(self, tmp_path, capsys):
        path = str(CONFIG_DIR / "degenerate_input.json")
        code = cli.main(["verify", "--config", path, "--which", "persistency",
                         "--out", str(tmp_path)])
        assert code == 4
        capsys.readouterr()


class TestTuneCommand:
    def test_overrides_enter_the_hash(self, tmp_path, capsys):
        raw = small_config()
        path = write_config(tmp_path, raw)
        hashes = []
        for extra in ([], ["--seed", "1"], ["--seed", "2"], ["--dt", "0.02"]):
            out = tmp_path / f"o{len(hashes)}"
            assert cli.main(["tune", "--config", path, "--out", str(out), *extra]) == 0
            hashes.append(json.loads((out / "tuning.json").read_text())["config_hash"])
        capsys.readouterr()
        assert hashes[0] == config.config_hash(raw)
        assert len(set(hashes)) == 4

    def test_writes_report_with_hash(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "tuning.json").read_text())
        for key in ("c", "gamma_star", "gamma", "h_star", "k_prime", "L",
                    "error_bound", "epsilon", "delta", "config_hash", "version"):
            assert key in payload
        assert payload["gamma_star"] == pytest.approx(0.1092950788552245)
        assert payload["k_prime"] == 1


class TestSimulateCommand:
    def test_deterministic_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", path, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_outputs_embed_hash(self, tmp_path, capsys):
        raw = small_config()
        path = write_config(tmp_path, raw)
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        first_line = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert config.config_hash(raw) in first_line
        decision = json.loads((tmp_path / "decision.json").read_text())
        assert decision["config_hash"] == config.config_hash(raw)

    def test_csv_header_format(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[1] == "t,s,shat_1,x_1,y_1,theta_hat_1,hf_1"


class TestVerifyCommand:
    def test_persistency_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        assert cli.main(["verify", "--config", path, "--which", "persistency",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_bounds_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        assert cli.main(["verify", "--config", path, "--which", "bounds",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_pe_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        assert cli.main(["verify", "--config", path, "--which", "pe",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "verify_pe.json").read_text())
        assert payload["condition_ok"] and payload["delta_star"] > 0


class TestFitRnnCommand:
    def test_small_fit_smoke(self, tmp_path, capsys):
        raw = small_config(rnn={"N": 60, "n_train": 4000, "sigmoid": "tanh",
                                "check_horizon": 0.5})
        path = write_config(tmp_path, raw)
        assert cli.main(["fit-rnn", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        net = json.loads((tmp_path / "network_1.json").read_text())
        assert net["N"] == 60
        div = json.loads((tmp_path / "divergence.json").read_text())
        assert all(r["passed"] for r in div["per_class"])


class TestReportCommand:
    def test_report_smoke(self, tmp_path, capsys):
        raw = small_config()
        path = write_config(tmp_path, raw)
        assert cli.main(["report", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["sweep_entered"]
        assert (tmp_path / "sweep.csv").exists()
