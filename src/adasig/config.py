"""Experiment configuration: one JSON file = one experiment = one hash.

`KEYS` is the whole config format: every section with each key's type and
its one default.  `load_config` resolves every section against it once:
it rejects unknown keys, values of the wrong type and values outside
their range (naming the key), fills in defaults (derived ones included),
checks the simulation grid and the decision window, and fixes every
class's gain.  All randomness in a run flows from the single simulation
seed through named sub-seeds.
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import signals
from .plant import PlantSpec
from .prototype import PrototypeConfig, compute_c, tune_gamma
from .rnn import SIGMOIDS

__all__ = ["ExperimentConfig", "KEYS", "config_hash", "load_config", "sub_seed"]

VERSION = "0.1.0"

REQUIRED = object()
"""Default of a key that every config must set."""

# section -> key -> (type, default); "classes" describes each entry of the
# classes list.  A None default leaves the key unset; load_config fills in
# the derived ones (tuning.pe_horizon, rnn.N_list) and the per-class gain.
KEYS = {
    "classes": {"family": ("str", REQUIRED), "theta_range": ("float pair", [0.5, 2.0])},
    "true": {"class": ("int", REQUIRED), "theta": ("float", REQUIRED)},
    "input": {"kind": ("str", "sin"), "t0": ("float", 0.0)},
    "plant": {"phi": ("str", "identity"), "slope": ("float", 1.0),
              "phi_min": ("float", None), "phi_max": ("float", None),
              "s0_range": ("float pair", [0.0, 1.0]), "noise_bound": ("float", 0.0)},
    "prototype": {"a": ("float", REQUIRED), "b": ("float", REQUIRED),
                  "gamma": ("float", None), "clamp_gamma": ("bool", True),
                  "safety": ("float", 0.5), "kappa": ("float", 2.0), "d": ("float", 0.5),
                  "delta": ("float", 1e-3), "nu_x": ("float", 0.0), "k_prime": ("int", 0)},
    "simulation": {"t0": ("float", 0.0), "horizon": ("float", 10.0), "dt": ("float", 1e-3),
                   "record_every": ("int", 10), "seed": ("int", 0), "s0": ("float", None)},
    "decision": {"T_star": ("float", 10.0), "eps": ("float", 0.02),
                 "settle": ("float", None), "theta_bound": ("float", None)},
    "rnn": {"N": ("int", 400), "N_list": ("int list", None), "n_train": ("int", 40000),
            "ridge": ("float", 1e-10), "sigmoid": ("str", "logistic"),
            "check_horizon": ("float", 0.0)},
    "sweep": {"count": ("int", 11), "grid": ("float list", None)},
    "tuning": {"window_T": ("float", 2.0 * math.pi), "pe_horizon": ("float", None)},
}
THETA_BOUND_FALLBACK = 0.05  # decision.theta_bound when unset and the error bound is 0


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _reals(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_real, v))


# type -> the value as that type holds it, or None when it cannot
_TYPES = {
    "float": lambda v: float(v) if _real(v) else None,
    "int": lambda v: v if _real(v) and isinstance(v, int) else None,
    "bool": lambda v: v if isinstance(v, bool) else None,
    "str": lambda v: v if isinstance(v, str) else None,
    "float pair": lambda v: tuple(map(float, v)) if _reals(v) and len(v) == 2 else None,
    "float list": lambda v: [float(x) for x in v] if _reals(v) else None,
    "int list": lambda v: v if _reals(v) and all(isinstance(x, int) for x in v) else None,
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
    return SimpleNamespace(**out)


def _check(ok: bool, key: str, value, rule: str) -> None:
    """Reject a config value that breaks its rule, naming its key."""
    if not ok:
        raise ValueError(f"{key} must be {rule}, got {value!r}")


def config_hash(raw: dict) -> str:
    """Stable hash of the raw configuration mapping."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def sub_seed(seed: int, name: str) -> int:
    """Derive a named sub-seed from the top-level seed."""
    h = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(h[:4], "big")


_PHI_KINDS = {
    "identity": lambda slope: (lambda s: s),
    "linear": lambda slope: (lambda s: slope * s),
}


@dataclass
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
    gamma_star: list  # admissible gain supremum per class, inf when c = 0
    _class_configs: list
    hash: str = ""

    @property
    def seed(self) -> int:
        return self.simulation.seed

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
        if self.sweep.grid is not None:
            return np.asarray(self.sweep.grid, dtype=float)
        lo, hi = self.classes[self.true_class].theta_range
        return np.linspace(lo, hi, self.sweep.count)


def _build_input(section: SimpleNamespace) -> "signals.InputSignal":
    if section.kind == "sin":
        return signals.sin_input()
    if section.kind == "degenerate":
        return signals.degenerate_xi(section.t0)
    raise ValueError(f"unknown input kind {section.kind!r}")


def _build_plant(section: SimpleNamespace) -> PlantSpec:
    """The plant of the config; phi_min is the slope of the phi kind, and a
    phi_min or phi_max key may only repeat it."""
    kind = section.phi
    if kind not in _PHI_KINDS:
        raise ValueError(f"unknown phi kind {kind!r}")
    _check(kind == "linear" or section.slope == 1.0, "plant.slope", section.slope,
           f"1 for phi kind {kind!r}")
    phi_min = section.slope if kind == "linear" else 1.0
    for key in ("phi_min", "phi_max"):
        value = getattr(section, key)
        if value is not None and value != phi_min:
            raise ValueError(f"plant {key} {value} differs from the slope "
                             f"{phi_min} of phi kind {kind!r}")
    return PlantSpec(phi=_PHI_KINDS[kind](section.slope), phi_min=phi_min,
                     s0_range=section.s0_range, noise_bound=section.noise_bound)


def _class_configs(p: SimpleNamespace, classes, plant: PlantSpec) -> tuple[list, list]:
    """Per-class prototype configurations and gain suprema gamma_star.

    Without prototype.gamma a class works at safety * gamma_star, or at 1
    when its family has c = 0 and the gain is unconstrained.  A requested
    gain at or above a class's gamma_star is clamped to safety * gamma_star
    for that class (with a warning); this keeps one shared config file
    usable across families of different sensitivity.
    """
    epsilon = plant.noise_bound / plant.phi_min
    configs, gamma_stars = [], []
    for clazz in classes:
        c = compute_c(clazz.lipschitz_theta, plant.phi_min, p.a, p.b)
        if c == 0:
            gamma_star = math.inf
            gamma = 1.0 if p.gamma is None else p.gamma
        else:
            gamma_star, gamma_default = tune_gamma(p.kappa, p.d, c, plant.phi_min, p.safety)
            gamma = gamma_default if p.gamma is None else p.gamma
            if gamma >= gamma_star:
                if p.clamp_gamma:
                    warnings.warn(
                        f"requested gamma {gamma} inadmissible for class "
                        f"{clazz.name!r} (gamma_star={gamma_star:.6g}); clamping"
                    )
                    gamma = p.safety * gamma_star
                else:
                    warnings.warn(
                        f"requested gamma {gamma} exceeds gamma_star="
                        f"{gamma_star:.6g} for class {clazz.name!r}; "
                        "keeping it (clamp_gamma false)"
                    )
        gamma_stars.append(gamma_star)
        configs.append(PrototypeConfig(gamma=gamma, a=p.a, b=p.b, epsilon=epsilon,
                                       delta=p.delta, nu_x=p.nu_x, k_prime=p.k_prime,
                                       kappa=p.kappa, d=p.d))
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
    entries = [_resolve("classes", c, f"classes[{i}]") for i, c in enumerate(raw["classes"])]
    classes = [
        signals.builtin_class(c.family, theta_range=c.theta_range, xi_sup=inp.xi_sup)
        for c in entries
    ]
    true_class, true_theta = getattr(sec["true"], "class"), sec["true"].theta
    if not 0 <= true_class < len(classes):
        raise ValueError(f"true class index {true_class} out of range")
    lo, hi = classes[true_class].theta_range
    if not lo <= true_theta <= hi:
        raise ValueError(f"true theta {true_theta} outside declared range [{lo}, {hi}]")

    p = sec["prototype"]
    for clazz in classes:
        if not (p.a < clazz.theta_range[0] and p.b > clazz.theta_range[1]):
            raise ValueError(
                f"(a, b) = ({p.a}, {p.b}) must strictly contain the parameter "
                f"range of class {clazz.name!r}"
            )
    tuning, rnn_sec = sec["tuning"], sec["rnn"]
    _check(tuning.window_T > 0, "tuning.window_T", tuning.window_T, "positive")
    if tuning.pe_horizon is None:
        tuning.pe_horizon = 8.0 * tuning.window_T
    _check(tuning.pe_horizon >= tuning.window_T, "tuning.pe_horizon", tuning.pe_horizon,
           f"at least tuning.window_T = {tuning.window_T}")
    dec = sec["decision"]
    _check(dec.eps >= 0, "decision.eps", dec.eps, "non-negative")
    _check(dec.settle is None or dec.settle >= 0, "decision.settle", dec.settle, "non-negative")
    _check(dec.theta_bound is None or dec.theta_bound > 0, "decision.theta_bound",
           dec.theta_bound, "positive")
    _check(rnn_sec.N >= 1, "rnn.N", rnn_sec.N, "at least 1")
    if rnn_sec.N_list is None:
        rnn_sec.N_list = [rnn_sec.N]
    _check(min(rnn_sec.N_list) >= 1, "rnn.N_list", rnn_sec.N_list, "at least 1 in every entry")
    _check(rnn_sec.n_train >= 1, "rnn.n_train", rnn_sec.n_train, "at least 1")
    _check(rnn_sec.ridge >= 0, "rnn.ridge", rnn_sec.ridge, "non-negative")
    _check(rnn_sec.check_horizon >= 0, "rnn.check_horizon", rnn_sec.check_horizon,
           "non-negative")
    if rnn_sec.sigmoid not in SIGMOIDS:
        raise ValueError(f"unknown rnn sigmoid {rnn_sec.sigmoid!r}")
    sweep = sec["sweep"]
    _check(sweep.count >= 1, "sweep.count", sweep.count, "at least 1")
    _check(sweep.grid is None or all(lo <= g <= hi for g in sweep.grid), "sweep.grid",
           sweep.grid, f"inside the true class's theta_range [{lo}, {hi}]")

    s0_lo, s0_hi = sec["plant"].s0_range
    _check(s0_lo <= s0_hi, "plant.s0_range", [s0_lo, s0_hi], "an interval with lo <= hi")
    s0 = sec["simulation"].s0
    _check(s0 is None or s0_lo <= s0 <= s0_hi, "simulation.s0", s0,
           f"inside plant.s0_range [{s0_lo}, {s0_hi}]")

    plant = _build_plant(sec["plant"])
    configs, gamma_stars = _class_configs(p, classes, plant)
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
