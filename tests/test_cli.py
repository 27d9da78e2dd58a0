import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import pytest

from adasig import cli, config, rnn

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


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
        with pytest.warns(UserWarning):
            cfg = config.load_config(raw)
        assert cfg.class_configs()[0].gamma < 10.0

    @pytest.mark.parametrize("simulation", [
        {"horizon": 150.005},  # 15000.5 steps of dt = 0.01
        {"record_every": 7},  # does not divide 15000 steps
        {"record_every": 0},
        {"dt": 0.0},
    ])
    def test_bad_grid_rejected(self, simulation):
        with pytest.raises(ValueError):
            config.load_config(small_config(simulation=simulation))

    @pytest.mark.parametrize("horizon", [2.05, 2.005])  # 205 and 200.5 steps
    def test_bad_explicit_horizon_rejected(self, horizon):
        cfg = config.load_config(json.loads((CONFIG_DIR / "one_class_linear.json").read_text()))
        with pytest.raises(ValueError):
            cli.run_simulate(cfg, horizon=horizon)

    def test_plant_slope_keys_may_repeat_the_slope(self):
        raw = small_config(plant={"phi": "linear", "slope": 30.0,
                                  "phi_min": 30.0, "phi_max": 30.0})
        assert config.load_config(raw).plant.phi_min == 30.0

    def test_grid_within_relative_tolerance_accepted(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        cfg = config.load_config(small_config(simulation={"horizon": 0.3, "dt": 0.1,
                                                          "record_every": 3},
                                              decision={"T_star": 0.3}))
        assert cfg.simulation_grid() == (0.3, 0.1, 3)

    def test_empty_sweep_grid_rejected(self):
        with pytest.raises(ValueError):
            config.load_config(small_config(sweep={"grid": []}))

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_load(self, path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # gamma clamps
            config.load_config(str(path))

    @pytest.mark.parametrize("workload", ["report-sweep", "rnn-fit", "dense-record"])
    def test_benchmark_configs_load(self, monkeypatch, workload):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "perfbench" / "workloads.py")
        wl = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, wl)  # its dataclasses look it up
        spec.loader.exec_module(wl)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for index in range(wl.N_INPUTS):
                config.load_config(wl.make_config(workload, index))

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

    @pytest.mark.parametrize("key", ["phi_min", "phi_max"])
    def test_plant_slope_key_off_the_phi_kind_exits_1(self, tmp_path, capsys, key):
        path = write_config(tmp_path, small_config(plant={"phi": "identity", key: 0.5}))
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_check_horizon_exits_1(self, tmp_path, capsys):
        raw = small_config(rnn={"N": 8, "n_train": 200, "check_horizon": 2.05})
        path = write_config(tmp_path, raw)
        assert cli.main(["fit-rnn", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "network_1.json").exists()

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


def _set(raw, path, value):
    *parents, key = path
    for p in parents:
        raw = raw.setdefault(p, {}) if isinstance(raw, dict) else raw[p]
    raw[key] = value


# (key path, value, command): each is rejected at load with exit 1
BAD_KEYS = [
    (("sweeps",), {"count": 1}, "tune"),
    (("classes", 0, "famly"), "linear", "tune"),
    (("true", "clas"), 0, "tune"),
    (("input", "knd"), "sin", "tune"),
    (("plant", "noise"), 0.0, "tune"),
    (("prototype", "gama"), 0.05, "tune"),
    (("simulation", "horizn"), 10.0, "tune"),
    (("decision", "Tstar"), 5.0, "tune"),
    (("rnn", "n"), 10, "tune"),
    (("sweep", "cnt"), 3, "tune"),
    (("tuning", "window"), 6.0, "tune"),
    (("decision", "T_star"), None, "simulate"),
    (("simulation", "horizon"), None, "simulate"),
    (("prototype", "delta"), [1], "tune"),
    (("rnn", "N"), None, "fit-rnn"),
    (("rnn", "sigmoid"), "relu", "fit-rnn"),
    (("prototype", "clamp_gamma"), "yes", "tune"),
    (("simulation", "record_every"), 2.5, "tune"),
    (("simulation", "seed"), True, "tune"),
    (("plant", "s0_range"), [0.0], "tune"),
    (("classes", 0, "theta_range"), "wide", "tune"),
    (("sweep", "grid"), [], "report"),
    (("sweep", "count"), 0, "report"),
    (("decision", "T_star"), 0.0, "simulate"),
    (("decision", "T_star"), 500.0, "simulate"),  # beyond the 150 s horizon
    (("decision", "T_star"), 5.05, "simulate"),  # not a multiple of dt * record_every
]


# (key path, value): each value is out of its key's range, and load_config
# rejects it with a message that names the key
BAD_VALUES = [
    (("plant", "slope"), 2.0),  # phi "identity" has slope 1
    (("plant", "s0_range"), [1.0, 0.0]),
    (("simulation", "s0"), 1.5),  # outside s0_range [0, 1]
    (("sweep", "grid"), [1.6, 2.5]),  # outside theta_range [1.3, 2.0]
    (("tuning", "window_T"), 0.0),
    (("tuning", "window_T"), -1.0),
    (("tuning", "pe_horizon"), 3.0),  # shorter than window_T = 2 pi
    (("decision", "eps"), -0.01),
    (("decision", "settle"), -1.0),
    (("decision", "theta_bound"), 0.0),
    (("decision", "theta_bound"), -0.1),
    (("rnn", "N"), 0),
    (("rnn", "N_list"), [50, 0]),
    (("rnn", "n_train"), 0),
    (("rnn", "ridge"), -1e-10),
    (("rnn", "check_horizon"), -2.0),
]


class TestLoadTimeRejection:
    @pytest.mark.parametrize("path,value", BAD_VALUES,
                             ids=[".".join(p) + f"={v!r}" for p, v in BAD_VALUES])
    def test_out_of_range_value_exits_1_naming_the_key(self, tmp_path, capsys, path, value):
        raw = small_config()
        _set(raw, path, value)
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {'.'.join(path)} must be ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("path,value,command", BAD_KEYS,
                             ids=[".".join(map(str, p)) + f"={v!r}" for p, v, _ in BAD_KEYS])
    def test_exits_1_before_any_output(self, tmp_path, capsys, path, value, command):
        raw = small_config()
        _set(raw, path, value)
        out = tmp_path / "out"
        assert cli.main([command, "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_decision_window_checked_after_dt_override(self, tmp_path, capsys):
        # T_star 0.3 is 3 recorded steps at dt = 0.01 and 1.5 at dt = 0.02
        path = write_config(tmp_path, small_config(decision={"T_star": 0.3}))
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path / "b"),
                         "--dt", "0.02"]) == 1
        assert capsys.readouterr().err.startswith("error: decision.T_star")


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

    def test_overrides_hash_like_an_edited_file(self, tmp_path, capsys):
        raw = small_config()
        path = write_config(tmp_path, raw)
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path),
                         "--seed", "3", "--dt", "0.02"]) == 0
        capsys.readouterr()
        raw["simulation"].update(seed=3, dt=0.02)
        edited = config.load_config(write_config(tmp_path, raw, "edited.json"))
        assert json.loads((tmp_path / "tuning.json").read_text())["config_hash"] == edited.hash

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

    def test_configured_theta_bound_under_noise(self, tmp_path, capsys):
        """With noise, decision.json's band_theta is the configured
        theta_bound, the bound convergence.json uses, not the tuning error bound."""
        raw = small_config(plant={"noise_bound": 1e-6}, simulation={"horizon": 40.0})
        path = write_config(tmp_path, raw)
        cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        capsys.readouterr()
        decision = json.loads((tmp_path / "decision.json").read_text())
        conv = json.loads((tmp_path / "convergence.json").read_text())
        assert decision["band_theta"] == conv["bound_used"] == 0.1


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
        fit = json.loads((tmp_path / "fit_report.json").read_text())
        assert [e["eps_N_basis"] for e in fit["sweep"]] == ["sampled"]
        div = json.loads((tmp_path / "divergence.json").read_text())
        assert all(r["passed"] for r in div["per_class"])
        assert all(r["domain_escape_t"] is None and r["eps_N_basis"] == "sampled"
                   for r in div["per_class"])

    def test_domain_escape_fails_the_check(self, tmp_path, capsys, monkeypatch):
        """Networks fitted on a box too small for the run leave it: the
        divergence verdict fails with the escape time, and fit-rnn exits 4."""
        real = rnn.domain_box
        monkeypatch.setattr(rnn, "domain_box", lambda *a, **kw: 0.5 * real(*a, **kw))
        raw = small_config(rnn={"N": 60, "n_train": 4000, "sigmoid": "tanh",
                                "check_horizon": 0.5})
        path = write_config(tmp_path, raw)
        assert cli.main(["fit-rnn", "--config", path, "--out", str(tmp_path)]) == 4
        assert "divergence=FAIL" in capsys.readouterr().out
        (entry,) = json.loads((tmp_path / "divergence.json").read_text())["per_class"]
        assert not entry["passed"]
        assert 0.0 < entry["domain_escape_t"] <= 0.5


@pytest.fixture(scope="module")
def single_point_report(tmp_path_factory):
    """report on the small config, whose sweep is the single theta 1.6."""
    out = tmp_path_factory.mktemp("report")
    path = write_config(out, small_config())
    code = cli.main(["report", "--config", path, "--out", str(out)])
    return code, out


class TestReportCommand:
    def test_report_smoke(self, single_point_report):
        code, out = single_point_report
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["sweep_entered"]
        assert (out / "sweep.csv").exists()

    def test_sweep_csv_header(self, single_point_report):
        _, out = single_point_report
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,entry_time,residence,winding_spent"

    def test_single_point_sets_t_prime_max(self, single_point_report):
        _, out = single_point_report
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        entry_time = float(rows[0].split(",")[1])
        payload = json.loads((out / "report.json").read_text())
        assert payload["T_prime_max_empirical"] == entry_time

    def test_never_entering_theta_flagged(self, tmp_path, capsys):
        raw = small_config(simulation={"horizon": 0.5},
                           decision={"T_star": 0.2, "theta_bound": 1e-9})
        path = write_config(tmp_path, raw)
        assert cli.main(["report", "--config", path, "--out", str(tmp_path)]) == 3
        capsys.readouterr()
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == "nan"
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["T_prime_max_empirical"] == math.inf
        assert not payload["sweep_entered"]

    def test_clamp_warning_once_per_clamped_class(self, tmp_path, capsys):
        raw = small_config(prototype={"gamma": 10.0}, sweep={"grid": [1.5, 1.6, 1.7]})
        raw["simulation"]["horizon"] = 30.0
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.main(["report", "--config", path, "--out", str(tmp_path)])
        capsys.readouterr()
        clamps = [w for w in caught if "clamping" in str(w.message)]
        assert len(clamps) == 1  # one class, clamped once
