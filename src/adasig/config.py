"""Experiment configuration: one JSON file = one experiment = one hash.

`KEYS` is the whole config format: every section with each key's type and
its one default.  `load_config` resolves every section against it once:
it rejects unknown keys, values of the wrong type and values outside
their range (naming the key; a rule on a field of PlantSpec or
PrototypeConfig, or on a tune_gamma constant, is stated there alone and
load_config names its section), fills in defaults (derived ones included),
checks the simulation grid and the decision window, and fixes every
class's gain, so that a config that loads can be tuned.  All randomness in
a run flows from the single simulation seed through named sub-seeds.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import signals
from .plant import PlantSpec
from .prototype import PrototypeConfig, budget_denominator, compute_c, tune_gamma
from .rnn import SIGMOIDS

VERSION = "0.1.0"

REQUIRED = object()
"""Default of a key that every config must set."""

# section -> key -> (type, default); "classes" describes each entry of the
# classes list.  A None default leaves the key unset; _resolve fills in the
# derived one (tuning.pe_horizon) and load_config the per-class gain.
KEYS = {
    "classes": {"family": ("str", REQUIRED), "theta_range": ("float pair", [0.5, 2.0])},
    "true": {"class": ("int", REQUIRED), "theta": ("float", REQUIRED)},
    "input": {"kind": ("str", "sin")},
    "plant": {"phi": ("str", "identity"), "phi_min": ("float", None), "phi_max": ("float", None),
              "s0_range": ("float pair", [0.0, 1.0]), "noise_bound": ("float", 0.0)},
    "prototype": {"a": ("float", REQUIRED), "b": ("float", REQUIRED), "gamma": ("float", None),
                  "safety": ("float", 0.5), "kappa": ("float", 2.0), "d": ("float", 0.5),
                  "delta": ("float", 1e-3), "nu_x": ("float", 0.0), "k_prime": ("int", 0)},
    "simulation": {"t0": ("float", 0.0), "horizon": ("float", 10.0), "dt": ("float", 1e-3),
                   "record_every": ("int", 10), "seed": ("int", 0), "s0": ("float", None)},
    "decision": {"T_star": ("float", 10.0), "eps": ("float", 0.02),
                 "theta_bound": ("float", None)},
    "rnn": {"N": ("int", 400), "n_train": ("int", 40000),
            "ridge": ("float", 1e-10), "sigmoid": ("str", "logistic"),
            "check_horizon": ("float", 0.0)},
    "sweep": {"count": ("int", 11)},
    "tuning": {"window_T": ("float", 2.0 * math.pi), "pe_horizon": ("float", None)},
}
THETA_BOUND_FALLBACK = 0.05  # decision.theta_bound when unset and the error bound is 0


def _finite(v) -> bool:
    """v is a number that a float holds finitely; json.load also reads NaN,
    Infinity and integers beyond the float range."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


# type -> the value as that type holds it, or None when it cannot
_TYPES = {
    "float": lambda v: float(v) if _finite(v) else None,
    "int": lambda v: v if isinstance(v, int) and not isinstance(v, bool) else None,
    "str": lambda v: v if isinstance(v, str) else None,
    "float pair": lambda v: (tuple(map(float, v)) if isinstance(v, list) and len(v) == 2
                             and all(map(_finite, v)) else None),
}


def _resolve(section: str, given, where: str) -> SimpleNamespace:
    """One section's keys with their types checked and defaults filled in."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be a mapping, got {given!r}")
    for key in sorted(given.keys() - KEYS[section].keys()):
        raise ValueError(f"unknown config key {where}.{key}")
    out = {}
    for key, (kind, default) in KEYS[section].items():
        value = given.get(key, default)
        if value is REQUIRED:
            raise ValueError(f"{where} must set {key}")
        if value is not None:
            value = _TYPES[kind](value)
        if value is None and key in given:
            raise ValueError(f"{where}.{key} must be {kind}, got {given[key]!r}")
        out[key] = value
    if section == "tuning" and out["pe_horizon"] is None:  # the one derived default
        out["pe_horizon"] = 8.0 * out["window_T"]
    return SimpleNamespace(**out)


def _check(ok: bool, key: str, value, rule: str) -> None:
    """Reject a config value that breaks its rule, naming its key."""
    if not ok:
        raise ValueError(f"{key} must be {rule}, got {value!r}")


def _named(where: str, build, *args):
    """build(*args), whose ValueError "<key> must be ..." gets where. in front
    of the key: the records and tune_gamma state their own rules."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{where}.{exc}") from None


def config_hash(raw: dict) -> str:
    """Stable hash of the raw configuration mapping."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def sub_seed(seed: int, name: str) -> int:
    """Derive a named sub-seed from the top-level seed."""
    h = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(h[:4], "big")


@dataclass(frozen=True)
class ExperimentConfig:
    """A loaded experiment: resolved sections (see `KEYS`) and the objects
    built from them."""

    raw: dict
    name: str
    classes: list  # list[SignalClass]
    inp: "signals.InputSignal"
    plant: PlantSpec
    true_class: int
    true_theta: float
    prototype: SimpleNamespace
    simulation: SimpleNamespace
    decision: SimpleNamespace
    rnn: SimpleNamespace
    sweep: SimpleNamespace
    tuning: SimpleNamespace
    gamma_star: list  # admissible gain supremum per class
    _class_configs: list
    hash: str = ""

    def class_configs(self) -> list[PrototypeConfig]:
        """Per-class prototype configurations with admissible gains."""
        return self._class_configs

    def simulation_grid(self, horizon=None) -> tuple[float, float, int]:
        """(horizon, dt, record_every) of the simulation section, or of the
        given horizon on the section's dt and record_every.

        Rejects a horizon that is not a whole number of dt steps (relative
        tolerance 1e-9) and a record_every that does not divide that number.
        """
        sim = self.simulation
        horizon = sim.horizon if horizon is None else float(horizon)
        dt, record_every = sim.dt, sim.record_every
        if not (math.isfinite(horizon) and horizon >= 0 and math.isfinite(dt) and dt > 0):
            raise ValueError(f"simulation needs a finite horizon >= 0 and dt > 0, "
                             f"got horizon={horizon}, dt={dt}")
        steps = horizon / dt
        if not math.isclose(steps, round(steps), rel_tol=1e-9):
            raise ValueError(f"horizon {horizon} is not a whole number of dt={dt} steps")
        if record_every < 1 or round(steps) % record_every:
            raise ValueError(f"record_every {record_every} does not divide the "
                             f"{round(steps)} steps of the horizon")
        return horizon, dt, record_every

    def theta_grid(self) -> np.ndarray:
        lo, hi = self.classes[self.true_class].theta_range
        return np.linspace(lo, hi, self.sweep.count)


def _build_input(section: SimpleNamespace) -> "signals.InputSignal":
    kinds = {"sin": signals.sin_input, "degenerate": signals.degenerate_xi}
    _check(section.kind in kinds, "input.kind", section.kind, f"one of {sorted(kinds)}")
    return kinds[section.kind]()


def _build_plant(section: SimpleNamespace) -> PlantSpec:
    """The plant of the config; phi_min is the slope of the phi kind (unset:
    1, the slope of identity), and a phi_max key may only repeat it."""
    kind = section.phi
    _check(kind in ("identity", "linear"), "phi", kind, "'identity' or 'linear'")
    phi_min = 1.0 if section.phi_min is None else section.phi_min
    _check(kind == "linear" or phi_min == 1.0, "phi_min", phi_min, f"1 for phi kind {kind!r}")
    _check(section.phi_max in (None, phi_min), "phi_max", section.phi_max,
           f"plant.phi_min = {phi_min}")
    return PlantSpec(phi_min=phi_min, s0_range=section.s0_range,
                     noise_bound=section.noise_bound)


def _class_configs(p: SimpleNamespace, classes, plant: PlantSpec) -> tuple[list, list]:
    """Per-class prototype configurations and gain suprema gamma_star.

    Without prototype.gamma a class works at safety * gamma_star.  A requested
    gain with no positive budget_denominator for a class is clamped to
    safety * gamma_star for that class (with a warning); this keeps one shared
    config file usable across families of different sensitivity.  A safety
    whose gain has none either is rejected, so tune_hstar can always run.
    """
    epsilon = plant.radius()
    configs, gamma_stars = [], []
    for clazz in classes:
        c = compute_c(clazz.lipschitz_theta, plant.phi_min, p.a, p.b)
        gamma_star, gamma = tune_gamma(p.kappa, p.d, c, plant.phi_min, p.safety)
        if p.gamma is not None and budget_denominator(plant.phi_min, p.gamma, p.kappa, p.d, c) > 0:
            gamma = p.gamma
        _check(gamma > 0 and budget_denominator(plant.phi_min, gamma, p.kappa, p.d, c) > 0,
               "safety", p.safety,
               f"such that safety * gamma_star (gamma_star = {gamma_star!r}) is a "
               f"positive gain with a finite phase budget for class {clazz.name!r}")
        gamma_stars.append(gamma_star)
        # the record checks delta and nu_x before any clamp warns
        configs.append(PrototypeConfig(gamma=gamma, a=p.a, b=p.b, epsilon=epsilon,
                                       delta=p.delta, nu_x=p.nu_x))
        if p.gamma not in (None, gamma):
            warnings.warn(f"requested gamma {p.gamma} inadmissible for class "
                          f"{clazz.name!r} (gamma_star={gamma_star:.6g}); clamping")
    return configs, gamma_stars


def load_config(path_or_dict) -> ExperimentConfig:
    """Parse, resolve and validate an experiment configuration."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a mapping, got {raw!r}")
    for key in raw:
        if key != "name" and key not in KEYS:
            raise ValueError(f"unknown config key {key}")
    for key in ("classes", "true"):
        if key not in raw:
            raise ValueError(f"config missing required section {key!r}")
    if not isinstance(raw["classes"], list) or not raw["classes"]:
        raise ValueError("config declares no signal classes")
    name = raw.get("name", "experiment")
    if not isinstance(name, str):
        raise ValueError(f"name must be a str, got {name!r}")
    sec = {s: _resolve(s, raw.get(s, {}), s) for s in KEYS if s != "classes"}

    inp = _build_input(sec["input"])
    classes, families = [], signals.BUILTIN_FAMILIES
    for i, entry in enumerate(raw["classes"]):
        where = f"classes[{i}]"
        c = _resolve("classes", entry, where)
        _check(c.family in families, f"{where}.family", c.family, f"one of {sorted(families)}")
        classes.append(_named(where, signals.builtin_class, c.family, c.theta_range,
                              inp.xi_sup))
    true_class, true_theta = getattr(sec["true"], "class"), sec["true"].theta
    _check(0 <= true_class < len(classes), "true.class", true_class,
           f"an index into the {len(classes)} classes")
    lo, hi = classes[true_class].theta_range
    _check(lo <= true_theta <= hi, "true.theta", true_theta,
           f"inside classes[{true_class}].theta_range [{lo}, {hi}]")

    p = sec["prototype"]
    for i, (lo, hi) in enumerate(clazz.theta_range for clazz in classes):
        _check(p.a < lo, "prototype.a", p.a, f"below classes[{i}].theta_range lo {lo}")
        _check(p.b > hi, "prototype.b", p.b, f"above classes[{i}].theta_range hi {hi}")
    # budget_denominator divides by a requested gain before any PrototypeConfig
    _check(p.gamma is None or p.gamma > 0, "prototype.gamma", p.gamma, "positive")
    _check(p.k_prime >= 0, "prototype.k_prime", p.k_prime, "non-negative")
    tuning, rnn_sec = sec["tuning"], sec["rnn"]
    _check(tuning.window_T > 0, "tuning.window_T", tuning.window_T, "positive")
    _check(tuning.pe_horizon >= tuning.window_T, "tuning.pe_horizon", tuning.pe_horizon,
           f"at least tuning.window_T = {tuning.window_T}")
    dec = sec["decision"]
    _check(dec.eps >= 0, "decision.eps", dec.eps, "non-negative")
    _check(dec.theta_bound is None or dec.theta_bound > 0, "decision.theta_bound",
           dec.theta_bound, "positive")
    _check(rnn_sec.N >= 1, "rnn.N", rnn_sec.N, "at least 1")
    _check(rnn_sec.n_train >= 1, "rnn.n_train", rnn_sec.n_train, "at least 1")
    _check(rnn_sec.ridge >= 0, "rnn.ridge", rnn_sec.ridge, "non-negative")
    # n_train < N rows leave the N x N normal equations rank-deficient
    _check(rnn_sec.ridge > 0 or rnn_sec.n_train >= rnn_sec.N, "rnn.ridge", rnn_sec.ridge,
           f"positive when rnn.n_train = {rnn_sec.n_train} is below rnn.N = {rnn_sec.N}")
    _check(rnn_sec.check_horizon >= 0, "rnn.check_horizon", rnn_sec.check_horizon,
           "non-negative")
    _check(rnn_sec.sigmoid in SIGMOIDS, "rnn.sigmoid", rnn_sec.sigmoid,
           f"one of {sorted(SIGMOIDS)}")
    _check(sec["sweep"].count >= 1, "sweep.count", sec["sweep"].count, "at least 1")

    plant = _named("plant", _build_plant, sec["plant"])
    (s0_lo, s0_hi), s0 = plant.s0_range, sec["simulation"].s0
    _check(s0 is None or s0_lo <= s0 <= s0_hi, "simulation.s0", s0,
           f"inside plant.s0_range [{s0_lo}, {s0_hi}]")
    configs, gamma_stars = _named("prototype", _class_configs, p, classes, plant)
    cfg = ExperimentConfig(
        raw=raw, name=name, classes=classes, inp=inp, plant=plant,
        true_class=true_class, true_theta=true_theta, gamma_star=gamma_stars,
        _class_configs=configs, hash=config_hash(raw),
        **{s: sec[s] for s in ("prototype", "simulation", "decision", "rnn", "sweep", "tuning")},
    )
    horizon, dt, record_every = cfg.simulation_grid()
    T_star, recorded = cfg.decision.T_star, dt * record_every
    if not 0 < T_star <= horizon:
        raise ValueError(f"decision.T_star {T_star} must lie in (0, horizon={horizon}]")
    if not math.isclose(T_star / recorded, round(T_star / recorded), rel_tol=1e-9):
        raise ValueError(f"decision.T_star {T_star} is not a whole number of "
                         f"recorded steps of {recorded}")
    if rnn_sec.check_horizon > 0:
        cfg.simulation_grid(rnn_sec.check_horizon)
    return cfg
