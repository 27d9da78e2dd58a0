import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adasig import analysis, classify, cli, config, integrator, plant, prototype, rnn

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def small_config(**overrides):
    """One-class linear experiment scaled down for fast CLI tests."""
    raw = json.loads((CONFIG_DIR / "one_class_linear.json").read_text())
    raw["prototype"]["gamma"] = 0.09
    raw["simulation"]["horizon"] = 150.0
    raw["decision"]["T_star"] = 5.0
    raw["decision"]["theta_bound"] = 0.1
    raw["sweep"] = {"count": 1}
    for key, val in overrides.items():
        if isinstance(val, dict):
            raw.setdefault(key, {}).update(val)
        else:
            raw[key] = val
    return raw


def bench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, wl)  # its dataclasses look it up
    spec.loader.exec_module(wl)
    return wl


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
        raw = small_config(plant={"phi": "linear", "phi_min": 30.0, "phi_max": 30.0})
        assert config.load_config(raw).plant.phi_min == 30.0

    def test_grid_within_relative_tolerance_accepted(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        cfg = config.load_config(small_config(simulation={"horizon": 0.3, "dt": 0.1,
                                                          "record_every": 3},
                                              decision={"T_star": 0.3}))
        assert cfg.simulation_grid() == (0.3, 0.1, 3)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_load(self, path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # gamma clamps
            config.load_config(str(path))

    @pytest.mark.parametrize("workload", ["report-sweep", "rnn-fit", "dense-record"])
    def test_benchmark_configs_load(self, monkeypatch, workload):
        wl = bench_workloads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for index in range(wl.N_INPUTS):
                config.load_config(wl.make_config(workload, index))

    def test_every_key_is_set_by_some_config(self, monkeypatch):
        """A key that no shipped config and no benchmark input set sets is an
        option nothing uses."""
        wl = bench_workloads(monkeypatch)
        raws = [json.loads(p.read_text()) for p in CONFIG_DIR.glob("*.json")]
        raws += [wl.make_config(w, i) for w in wl.WORKLOADS for i in range(wl.N_INPUTS)]
        keys = {f"{s}.{k}" for s, section in config.KEYS.items() for k in section}
        used = set()
        for raw in raws:
            for s in config.KEYS:
                entries = raw.get(s, []) if s == "classes" else [raw.get(s, {})]
                used |= {f"{s}.{k}" for entry in entries for k in entry}
        assert sorted(keys - used) == []

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
        raw["plant"].update(phi="linear", phi_min=100.0, phi_max=100.0)
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
        raw["plant"].update(phi="linear", phi_min=30.0, phi_max=30.0)
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


def strict_json(path):
    """The JSON at path, refusing the non-standard Infinity, -Infinity and NaN."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestStandardJson:
    """Every artifact is standard JSON: a non-finite float is written as null."""

    def test_degenerate_input_artifacts_parse(self, tmp_path, capsys):
        path = str(CONFIG_DIR / "degenerate_input.json")
        assert cli.main(["report", "--config", path, "--out", str(tmp_path)]) == 3
        assert cli.main(["verify", "--config", path, "--which", "pe",
                         "--out", str(tmp_path)]) == 4
        capsys.readouterr()
        report = strict_json(tmp_path / "report.json")
        assert report["T_prime_max_empirical"] is None and report["sweep_entered"] is False
        pe = strict_json(tmp_path / "verify_pe.json")
        assert pe["p"] is None and pe["condition_ok"] is False

    def test_tune_stdout_parses(self, tmp_path, capsys):
        # noise makes the degenerate input's error bound infinite
        raw = json.loads((CONFIG_DIR / "degenerate_input.json").read_text())
        raw["plant"]["noise_bound"] = 1e-4
        with pytest.warns(UserWarning, match="rho inverse evaluated beyond"):
            assert cli.main(["tune", "--config", write_config(tmp_path, raw),
                             "--out", str(tmp_path)]) == 0
        path = tmp_path / "stdout.json"
        path.write_text(capsys.readouterr().out)
        assert strict_json(path)["error_bound"] is None
        assert strict_json(tmp_path / "tuning.json") == strict_json(path)

    def test_nested_non_finite_floats_become_null(self, tmp_path):
        cli._write_json(tmp_path / "x.json", {"a": [1.5, (math.inf, -math.inf)],
                                              "b": {"c": math.nan, "d": 2}})
        assert strict_json(tmp_path / "x.json") == {"a": [1.5, [None, None]],
                                                    "b": {"c": None, "d": 2}}


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
    (("prototype", "clamp_gamma"), "yes", "tune"),  # removed: an unknown config key
    (("simulation", "record_every"), 2.5, "tune"),
    (("simulation", "seed"), True, "tune"),
    (("plant", "s0_range"), [0.0], "tune"),
    (("classes", 0, "theta_range"), "wide", "tune"),
    (("sweep", "count"), 0, "report"),
    (("decision", "T_star"), 0.0, "simulate"),
    (("decision", "T_star"), 500.0, "simulate"),  # beyond the 150 s horizon
    (("decision", "T_star"), 5.05, "simulate"),  # not a multiple of dt * record_every
]


# (key path, value): each value is out of its key's range, and load_config
# rejects it with a message that names the key
BAD_VALUES = [
    (("plant", "phi_min"), 2.0),  # phi "identity" has slope 1
    (("plant", "phi_max"), 2.0),  # phi_min is 1
    (("plant", "s0_range"), [1.0, 0.0]),
    (("simulation", "s0"), 1.5),  # outside s0_range [0, 1]
    (("tuning", "window_T"), 0.0),
    (("tuning", "window_T"), -1.0),
    (("tuning", "pe_horizon"), 3.0),  # shorter than window_T = 2 pi
    (("decision", "eps"), -0.01),
    (("decision", "theta_bound"), 0.0),
    (("decision", "theta_bound"), -0.1),
    (("rnn", "N"), 0),
    (("rnn", "n_train"), 0),
    (("rnn", "ridge"), -1e-10),
    (("rnn", "check_horizon"), -2.0),
    (("prototype", "gamma"), 0.0),
    (("prototype", "delta"), -1e-3),
    (("prototype", "kappa"), 1.0),
    (("prototype", "d"), 1.0),
    (("prototype", "nu_x"), 7.0),  # above 2 pi
    (("prototype", "k_prime"), -1),
    (("prototype", "safety"), 1.0),
    (("plant", "noise_bound"), -1e-4),
    (("plant", "phi"), "cubic"),
    (("classes", 0, "family"), "nope"),
    (("classes", 0, "theta_range"), [2.0, 1.3]),  # inverted
    (("true", "class"), 1),  # one class
    (("true", "theta"), 2.5),  # outside theta_range [1.3, 2.0]
    (("input", "kind"), "cos"),
    (("rnn", "sigmoid"), "relu"),
    (("prototype", "a"), 1.4),  # above theta_range lo 1.3
    (("prototype", "b"), 1.9),  # below theta_range hi 2.0
]
# json.load reads NaN and Infinity: every float and float pair key rejects them
BAD_VALUES += [
    ((section, 0, key) if section == "classes" else (section, key),
     [0.0, bad] if kind == "float pair" else bad)
    for section, keys in config.KEYS.items()
    for key, (kind, _) in keys.items() if kind in ("float", "float pair")
    for bad in (math.inf, -math.inf, math.nan)
]


# (key path, value, the record or tune_gamma built directly with that value):
# each rule is stated by the record alone, and load_config names its section
RECORD_RULES = [
    (("plant", "phi_min"), -1.0, lambda v: plant.PlantSpec(phi_min=v)),
    (("plant", "noise_bound"), -1e-4, lambda v: plant.PlantSpec(noise_bound=v)),
    (("plant", "s0_range"), [1.0, 0.0], lambda v: plant.PlantSpec(s0_range=tuple(v))),
    (("prototype", "delta"), -1e-3,
     lambda v: prototype.PrototypeConfig(gamma=0.1, a=1.1, b=2.2, delta=v)),
    (("prototype", "nu_x"), 7.0,
     lambda v: prototype.PrototypeConfig(gamma=0.1, a=1.1, b=2.2, nu_x=v)),
    (("prototype", "kappa"), 1.0, lambda v: prototype.tune_gamma(v, 0.5, 1.0, 1.0)),
    (("prototype", "d"), 1.0, lambda v: prototype.tune_gamma(2.0, v, 1.0, 1.0)),
    (("prototype", "safety"), 1.0, lambda v: prototype.tune_gamma(2.0, 0.5, 1.0, 1.0, v)),
]


def _key_name(path):
    """The key as load_config's messages name it: classes[0].theta_range."""
    if path[0] == "classes":
        return f"classes[{path[1]}].{path[2]}"
    return ".".join(path)


class TestLoadTimeRejection:
    @pytest.mark.parametrize("path,value", BAD_VALUES,
                             ids=[_key_name(p) + f"={v!r}" for p, v in BAD_VALUES])
    def test_out_of_range_value_exits_1_naming_the_key(self, tmp_path, capsys, path, value):
        raw = small_config()
        _set(raw, path, value)
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {_key_name(path)} must be ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("path,value,build", RECORD_RULES,
                             ids=[_key_name(p) + f"={v!r}" for p, v, _ in RECORD_RULES])
    def test_load_reports_the_record_message(self, path, value, build):
        """The load error is the record's own message behind the section."""
        raw = small_config(plant={"phi": "linear"})
        del raw["plant"]["phi_max"]
        _set(raw, path, value)
        with pytest.raises(ValueError) as direct:
            build(value)
        with pytest.raises(ValueError) as loaded:
            config.load_config(raw)
        assert str(loaded.value) == f"{path[0]}.{direct.value}"
        assert str(loaded.value).startswith(f"{_key_name(path)} must be ")

    def test_family_range_names_the_key(self, tmp_path, capsys):
        """A theta_range outside the range a family declares, here
        quadratic-affine's [0.5, 2], is named like any other range error."""
        raw = small_config()
        raw["classes"][0] = {"family": "quadratic-affine", "theta_range": [0.4, 2.0]}
        raw["prototype"]["a"] = 0.3
        assert cli.main(["tune", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: classes[0].theta_range must be inside [0.5, 2]")
        assert err.count("\n") == 1

    def test_integer_beyond_the_float_range_rejected(self):
        # json.load reads 2**1024 as an int, which float() cannot convert
        with pytest.raises(ValueError, match="^plant.noise_bound must be float"):
            config.load_config(small_config(plant={"noise_bound": 2**1024}))

    def test_infinite_noise_bound_simulate_exits_1(self, tmp_path, capsys):
        raw = small_config(plant={"noise_bound": math.inf})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: plant.noise_bound must be float, got inf\n"
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

    def test_linear_slope_must_be_positive(self, tmp_path, capsys):
        raw = small_config(plant={"phi": "linear", "phi_min": -1.0})
        del raw["plant"]["phi_max"]
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: plant.phi_min must be positive") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n_train", [1, 5, 9])
    def test_rank_deficient_fit_rejected(self, tmp_path, capsys, n_train):
        """With ridge 0, fewer training rows than units leave the normal
        equations singular: the load names rnn.ridge before any fit runs."""
        raw = small_config(rnn={"N": 10, "n_train": n_train, "ridge": 0.0})
        with pytest.raises(ValueError, match="^rnn.ridge must be positive when rnn.n_train"):
            config.load_config(raw)
        out = tmp_path / "out"
        assert cli.main(["fit-rnn", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rnn.ridge must be ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_ridge_zero_loads_with_as_many_rows_as_units(self):
        raw = small_config(rnn={"N": 10, "n_train": 10, "ridge": 0.0})
        assert config.load_config(raw).rnn.ridge == 0.0

    def test_decision_window_checked_after_dt_override(self, tmp_path, capsys):
        # T_star 0.3 is 3 recorded steps at dt = 0.01 and 1.5 at dt = 0.02
        path = write_config(tmp_path, small_config(decision={"T_star": 0.3}))
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path / "b"),
                         "--dt", "0.02"]) == 1
        assert capsys.readouterr().err.startswith("error: decision.T_star")


def near_gamma_star_config(**prototype):
    """one_class_linear at kappa 1.5 and d 0.2, where the gain one ulp below
    gamma_star has no positive budget denominator."""
    raw = json.loads((CONFIG_DIR / "one_class_linear.json").read_text())
    raw["prototype"].update(kappa=1.5, d=0.2, **prototype)
    return raw


def ulps_from(x: float, k: int) -> float:
    """The float k steps of one ulp above x (below it for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


class TestGainRule:
    """A config that loads can be tuned: load_config admits a gain by the
    budget denominator that tune_hstar divides by."""

    def test_gain_one_ulp_below_gamma_star_is_clamped(self, tmp_path, capsys):
        gamma_star = config.load_config(near_gamma_star_config()).gamma_star[0]
        raw = near_gamma_star_config(gamma=ulps_from(gamma_star, -1))
        path = write_config(tmp_path, raw)
        with pytest.warns(UserWarning, match="inadmissible for class 'linear'.*; clamping"):
            assert cli.main(["tune", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        tuning = json.loads((tmp_path / "tuning.json").read_text())
        assert tuning["gamma"] == raw["prototype"]["safety"] * gamma_star

    @pytest.mark.parametrize("command", ["tune", "simulate", "report"])
    def test_safety_without_a_finite_budget_exits_1(self, tmp_path, capsys, command):
        raw = near_gamma_star_config(safety=0.9999999999999999)
        out = tmp_path / "out"
        assert cli.main([command, "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: prototype.safety must be ") and err.count("\n") == 1
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(kappa=st.floats(1.0, 5.0, exclude_min=True),
           d=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           safety=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
           | st.integers(1, 4).map(lambda k: ulps_from(1.0, -k)),
           true_class=st.integers(0, 2), offset=st.none() | st.integers(-4, 4))
    def test_a_config_that_loads_can_be_tuned(self, kappa, d, safety, true_class, offset):
        """safety free or within 4 ulps of 1; the gain unset or within 4 ulps
        of the true class's gamma_star, which no safety changes."""
        raw = json.loads((CONFIG_DIR / "three_class.json").read_text())
        del raw["prototype"]["gamma"]
        raw["prototype"].update(kappa=kappa, d=d)
        raw["true"]["class"] = true_class
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # gamma clamps, rho extrapolation
            try:
                cfg = config.load_config(raw)
                raw["prototype"]["safety"] = safety
                if offset is not None:
                    raw["prototype"]["gamma"] = ulps_from(cfg.gamma_star[true_class], offset)
                cfg = config.load_config(raw)
            except ValueError as exc:
                assert str(exc).startswith("prototype.safety must be ")
                return
            cli.run_tune(cfg)


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


    @pytest.mark.parametrize("noise_bound,vacuous", [(0.0, False), (1e-6, False), (1e-4, True)])
    @pytest.mark.filterwarnings("ignore:rho inverse evaluated beyond")
    def test_vacuous_when_the_bound_spans_the_readback(self, tmp_path, capsys,
                                                        noise_bound, vacuous):
        """tuning.json's vacuous is error_bound >= b - a: on [1.1, 2.2] the
        radius 0.386 at noise 1e-6 can exclude an estimate, 1.221 at 1e-4
        cannot."""
        path = write_config(tmp_path, small_config(plant={"noise_bound": noise_bound}))
        assert cli.main(["tune", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "tuning.json").read_text())
        cfg = config.load_config(path)
        assert payload["vacuous"] is vacuous
        assert vacuous == (payload["error_bound"] >= cfg.prototype.b - cfg.prototype.a)


def test_distribution_version_is_the_artifact_version():
    """pyproject.toml reads its version from adasig.config.VERSION, the
    version stamped into every artifact."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools marks [tool.setuptools] as beta
        meta = pyprojecttoml.read_configuration(ROOT / "pyproject.toml", expand=True)
    assert meta["project"]["version"] == config.VERSION


def test_failing_hypothesis_example_ends_no_run(tmp_path):
    """Under the repository's warning filters, a failing hypothesis test is
    reported as a failure and the tests after it still run: reporting the
    example imports libcst, whose mypy_extensions import warns, and as an
    error that warning would stop pytest with an INTERNALERROR."""
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_example.py").write_text("\n".join([
        "from hypothesis import given, strategies as st",
        "@given(st.integers())",
        "def test_fails(x):",
        "    assert x < 0",
        "def test_passes():",
        "    pass",
    ]) + "\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_example.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


class TestRhoReach:
    """run_tune evaluates rho at b - a, the largest separation it samples."""

    @staticmethod
    def rounding_config():
        # theta_ref + (b - a) = 1.2 + 1.2 rounds so that the sampled distance
        # is 1.1999999999999995, one ulp short of b - a = 1.1999999999999997
        raw = small_config(prototype={"a": 1.1, "b": 2.3})
        raw["classes"][0]["theta_range"] = [1.2, 2.0]
        return config.load_config(raw)

    def test_sampled_separation_is_silent(self):
        cfg = self.rounding_config()
        span = cfg.prototype.b - cfg.prototype.a
        rho = cli.rho_envelope_for(cfg, 0)
        assert rho.seps[-1] < span
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rho(span) == rho.devs[-1]
            cli.run_tune(cfg)

    def test_beyond_the_sampled_range_warns(self):
        cfg = self.rounding_config()
        rho = cli.rho_envelope_for(cfg, 0)
        with pytest.warns(UserWarning, match="beyond the certified separation range"):
            rho(1.01 * (cfg.prototype.b - cfg.prototype.a))


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

    def test_band_hf_is_eps_plus_noise_band(self, tmp_path, capsys):
        """decision.json's band_hf is decision.eps + noise_bound/phi_min."""
        raw = small_config(plant={"phi": "linear", "phi_min": 2.0, "phi_max": 2.0,
                                  "noise_bound": 1e-6}, simulation={"horizon": 40.0})
        path = write_config(tmp_path, raw)
        cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        capsys.readouterr()
        decision = json.loads((tmp_path / "decision.json").read_text())
        assert decision["band_hf"] == raw["decision"]["eps"] + 1e-6 / 2.0
        assert decision["band_hf"] == cli.decision_band(config.load_config(raw))

    def test_run_far_from_t_zero(self, tmp_path, capsys):
        """A run that starts at t = 1e5 writes its grid t0 + j*dt: the
        constant-step check allows the rounding of a grid that far out."""
        raw = small_config(simulation={"t0": 1e5, "dt": 1e-3, "horizon": 2.0},
                           decision={"T_star": 1.0})
        path = write_config(tmp_path, raw)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == cli.EXIT_NOT_ENTERED and capsys.readouterr().err == ""
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[2:]
        assert [float(r.split(",")[0]) for r in rows] == [1e5 + (10 * j) * 1e-3
                                                          for j in range(201)]


class TestVerifyCommand:
    def test_persistency_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        assert cli.main(["verify", "--config", path, "--which", "persistency",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_persistency_judges_the_tuned_envelope(self, tmp_path, capsys):
        """verify --which persistency reports the samples of the envelope
        that tune builds, as sampled, not a sampler of its own."""
        raw = small_config()
        path = write_config(tmp_path, raw)
        assert cli.main(["verify", "--config", path, "--which", "persistency",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        cfg = config.load_config(raw)
        samples = cli.rho_envelope_for(cfg, cfg.true_class).samples
        report = json.loads((tmp_path / "verify_persistency.json").read_text())
        assert report["rho_samples"] == [list(p) for p in samples]

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

    def test_pe_filter_matches_the_rk4_step_loop(self, tmp_path, monkeypatch):
        """verify_pe_example's filter, one stage function for the whole run,
        gives the floats of one rk4_step call and one new lambda per step."""
        seen = []
        real = analysis.verify_filtered_pe

        def recording(z, u, dt, *args, **kwargs):
            seen.append((z, u, dt))
            return real(z, u, dt, *args, **kwargs)

        monkeypatch.setattr(analysis, "verify_filtered_pe", recording)
        cfg = config.load_config(write_config(tmp_path, small_config()))
        cli.verify_pe_example(cfg)
        ((z, u, dt),) = seen
        phi_min = cfg.plant.phi_min
        ref = [0.0]
        for k, uk in enumerate(u.tolist()[:-1]):
            ref += integrator.rk4_step(lambda q, tt: [-phi_min * q[0] + uk], ref[-1:], k * dt, dt)
        assert len(z) == len(u) == 50_001 and z.tolist() == ref


class TestFitRnnCommand:
    def test_small_fit_smoke(self, tmp_path, capsys):
        raw = small_config(rnn={"N": 60, "n_train": 4000, "sigmoid": "tanh",
                                "check_horizon": 0.5})
        path = write_config(tmp_path, raw)
        assert cli.main(["fit-rnn", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        net = json.loads((tmp_path / "network_1.json").read_text())
        assert np.shape(net["omega"]) == (60, 5)
        fit = json.loads((tmp_path / "fit_report.json").read_text())
        assert [e["eps_N_basis"] for e in fit["sweep"]] == ["sampled"]
        div = json.loads((tmp_path / "divergence.json").read_text())
        assert all(r["passed"] for r in div["per_class"])
        assert all(r["domain_escape_t"] is None and r["eps_N_basis"] == "sampled"
                   for r in div["per_class"])
        # the decision band eps + noise_bound / phi_min, the box of network_1.json
        cfg = config.load_config(path)
        band = cfg.decision.eps + cfg.plant.noise_bound / cfg.plant.phi_min
        (entry,) = div["per_class"]
        diagonal = math.dist(*np.array(net["domain"])[2:].T)
        assert entry["vacuous"] == (entry["max_bound"] >= diagonal)
        assert entry["informative_horizon"] == pytest.approx(
            math.log(1.0 + band * entry["L_i"] / net["eps_N"]) / entry["L_i"], rel=1e-12)

    def test_no_check_horizon_reports_the_check_skipped(self, tmp_path, capsys):
        raw = small_config(rnn={"N": 40, "n_train": 2000, "sigmoid": "tanh"})
        path = write_config(tmp_path, raw)
        assert cli.main(["fit-rnn", "--config", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("divergence=skipped")
        assert (tmp_path / "fit_report.json").exists()
        assert not (tmp_path / "divergence.json").exists()

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
def record_artifacts(tmp_path_factory):
    """simulate, tune, verify --which pe and a small fit-rnn with a
    divergence check, all on the small config, into one directory."""
    out = tmp_path_factory.mktemp("records")
    raw = small_config(rnn={"N": 20, "n_train": 1000, "sigmoid": "tanh",
                            "check_horizon": 0.5})
    path = write_config(out, raw)
    for command in (["simulate"], ["tune"], ["verify", "--which", "pe"], ["fit-rnn"]):
        assert cli.main([*command, "--config", path, "--out", str(out)]) == 0
    return out


STAMP = {"config_hash", "version"}


class TestOneRecordPerArtifact:
    """Each artifact is one dataclass record, stamped and written whole:
    its keys are the record's fields and the stamp, and verify_pe.json's
    check name."""

    @staticmethod
    def fields(record) -> set:
        return {f.name for f in dataclasses.fields(record)}

    @pytest.mark.parametrize("artifact,record,extra", [
        ("convergence.json", analysis.ConvergenceReport, set()),
        ("decision.json", classify.DecisionReport, set()),
        ("tuning.json", prototype.TuningReport, set()),
        ("verify_pe.json", analysis.PEReport, {"check"}),
        ("network_1.json", rnn.SigmoidNetwork, set()),
    ])
    def test_stamped_record(self, record_artifacts, artifact, record, extra):
        payload = json.loads((record_artifacts / artifact).read_text())
        assert payload.keys() == self.fields(record) | extra | STAMP

    def test_divergence_entries_are_records(self, record_artifacts):
        payload = json.loads((record_artifacts / "divergence.json").read_text())
        assert payload.keys() == {"per_class"} | STAMP
        for entry in payload["per_class"]:
            assert entry.keys() == self.fields(rnn.DivergenceReport)


@pytest.fixture(scope="module")
def single_point_report(tmp_path_factory):
    """report on the small config, whose sweep is the single theta 1.3, the
    lower end of theta_range."""
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
        assert payload["tuning"]["vacuous"] is False  # error_bound 0 without noise
        assert (out / "sweep.csv").exists()

    def test_sweep_csv_header(self, single_point_report):
        _, out = single_point_report
        lines = (out / "sweep.csv").read_text().splitlines()
        payload = json.loads((out / "report.json").read_text())
        assert lines[0] == f"# config_hash={payload['config_hash']} version={payload['version']}"
        assert lines[1] == "theta,entry_time,residence,winding_spent"

    def test_single_point_sets_t_prime_max(self, single_point_report):
        _, out = single_point_report
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
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
        row = (tmp_path / "sweep.csv").read_text().splitlines()[2]
        assert row.split(",")[1] == "nan"
        payload = strict_json(tmp_path / "report.json")
        assert payload["T_prime_max_empirical"] is None
        assert not payload["sweep_entered"]

    def test_clamp_warning_once_per_clamped_class(self, tmp_path, capsys):
        raw = small_config(prototype={"gamma": 10.0}, sweep={"count": 3})
        raw["simulation"]["horizon"] = 30.0
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.main(["report", "--config", path, "--out", str(tmp_path)])
        capsys.readouterr()
        clamps = [w for w in caught if "clamping" in str(w.message)]
        assert len(clamps) == 1  # one class, clamped once


CONTRACT_COMMANDS = [["tune"], ["simulate"], ["report"], ["fit-rnn"], ["verify", "--which", "pe"],
                     ["verify", "--which", "persistency"], ["verify", "--which", "bounds"]]
# the two warnings a run may give: a gain clamp and rho^-1 extrapolation
DOCUMENTED_WARNINGS = ("inadmissible for class", "rho inverse evaluated beyond")
# the errors a config that loads can still exit 1 with
RUN_ERRORS = ("error: integration diverged at t=",
              "error: normal equations are singular; increase ridge")


@st.composite
def contract_configs(draw):
    """1-3 classes of random families and ranges inside [0.5, 2], a and b
    around them, either input, a linear plant of slope 0.1-20 with noise up
    to 0.5, dt 1e-3-0.2 with 20-200 recorded rows, and small networks with
    ridge 0 among the choices."""
    classes = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.floats(0.5, 1.8))
        classes.append({"family": draw(st.sampled_from(["linear", "sine", "quadratic-affine"])),
                        "theta_range": [lo, min(lo + draw(st.floats(0.05, 0.2)), 2.0)]})
    true = draw(st.integers(0, len(classes) - 1))
    dt, every, rows = draw(st.floats(1e-3, 0.2)), draw(st.integers(1, 5)), draw(st.integers(20, 200))
    horizon = rows * every * dt
    return {
        "classes": classes,
        "true": {"class": true, "theta": draw(st.floats(*classes[true]["theta_range"]))},
        "input": {"kind": draw(st.sampled_from(["sin", "degenerate"]))},
        "plant": {"phi": "linear", "phi_min": draw(st.floats(0.1, 20.0)),
                  "noise_bound": draw(st.floats(0.0, 0.5))},
        "prototype": {"a": min(c["theta_range"][0] for c in classes) - draw(st.floats(0.05, 0.5)),
                      "b": max(c["theta_range"][1] for c in classes) + draw(st.floats(0.05, 0.5)),
                      **draw(st.just({}) | st.builds(dict, gamma=st.floats(1e-3, 1.0)))},
        "simulation": {"dt": dt, "record_every": every, "horizon": horizon,
                       "seed": draw(st.integers(0, 2**16))},
        "decision": {"T_star": draw(st.integers(1, rows)) * every * dt},
        "rnn": {"N": draw(st.sampled_from([1, 3, 10])),
                "n_train": draw(st.sampled_from([1, 5, 50])),
                "ridge": draw(st.sampled_from([0.0, 1e-10, 1e-3])),
                "check_horizon": draw(st.sampled_from([0.0, horizon]))},
        "sweep": {"count": draw(st.integers(1, 3))},
    }


class TestCliContract:
    """README's CLI contract over random configs: a documented exit code, an
    exit 1 with one error line and no traceback, no warning besides the
    documented two, and standard JSON artifacts."""

    @staticmethod
    def run(command, path, out):
        """cli.main's (exit code, stderr, warning messages) for one command."""
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = cli.main([*command, "--config", str(path), "--out", str(out)])
        return code, err.getvalue(), [str(w.message) for w in caught]

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(raw=contract_configs())
    @example(raw=small_config(  # slope 20 at dt 0.2 leaves RK4's stability region
        plant={"phi": "linear", "phi_min": 20.0, "phi_max": 20.0},
        simulation={"dt": 0.2, "horizon": 20.0, "record_every": 1},
        decision={"T_star": 2.0},
        rnn={"N": 10, "n_train": 50, "check_horizon": 20.0}))
    def test_every_command_keeps_the_contract(self, raw):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # gamma clamps
                config.load_config(raw)
            load_error = None
        except ValueError as exc:
            load_error = f"error: {exc}\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), raw)
            for i, command in enumerate(CONTRACT_COMMANDS):
                out = Path(tmp) / f"out{i}"
                code, err, messages = self.run(command, path, out)
                assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_NOT_ENTERED,
                                cli.EXIT_VERIFY_FAIL)
                assert [m for m in messages
                        if not any(w in m for w in DOCUMENTED_WARNINGS)] == []
                files = sorted(p.name for p in out.iterdir()) if out.exists() else None
                if code == cli.EXIT_PARSE:
                    assert err.startswith("error: ") and err.count("\n") == 1
                    assert "Traceback" not in err
                    if load_error is not None:
                        assert (err, files) == (load_error, None)  # no output directory
                        continue
                    assert err.startswith(RUN_ERRORS)
                    # the failed step writes nothing, but fit-rnn's divergence
                    # check runs after the networks and fit_report.json are written
                    fitted = [f"network_{k + 1}.json" for k in range(len(raw["classes"]))]
                    assert files == [] or (command == ["fit-rnn"]
                                           and files == sorted(fitted + ["fit_report.json"]))
                for artifact in out.glob("*.json"):
                    strict_json(artifact)
