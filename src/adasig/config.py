"""Experiment configuration: one JSON file = one experiment = one hash.

Flat sections mirror the module layout (classes, input, plant, prototype,
simulation, decision, rnn, sweep).  All randomness in a run flows from the
single top-level seed through named sub-seeds.
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import signals
from .plant import PlantSpec
from .prototype import PrototypeConfig, compute_c, tune_gamma

__all__ = ["ExperimentConfig", "config_hash", "load_config", "sub_seed"]

VERSION = "0.1.0"


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
    raw: dict
    name: str
    classes: list  # list[SignalClass]
    inp: "signals.InputSignal"
    plant: PlantSpec
    true_class: int
    true_theta: float
    prototype: dict  # section values (a, b, gamma request, delta, ...)
    simulation: dict
    decision: dict
    rnn: dict
    sweep: dict
    hash: str = ""

    @property
    def seed(self) -> int:
        return int(self.simulation.get("seed", 0))

    def class_configs(self) -> list[PrototypeConfig]:
        """Per-class prototype configurations with admissible gains.

        A requested gain above a class's admissible supremum is clamped to
        safety * gamma_star for that class (with a warning); this keeps one
        shared config file usable across families of different sensitivity.
        """
        p = self.prototype
        a, b = float(p["a"]), float(p["b"])
        kappa = float(p.get("kappa", 2.0))
        d = float(p.get("d", 0.5))
        safety = float(p.get("safety", 0.5))
        epsilon = self.plant.noise_bound / self.plant.phi_min
        out = []
        for clazz in self.classes:
            c = compute_c(clazz.lipschitz_theta, self.plant.phi_min, a, b)
            if c == 0:
                gamma_star = math.inf
                gamma = float(p.get("gamma", 1.0))
            else:
                gamma_star, gamma_default = tune_gamma(
                    kappa, d, c, self.plant.phi_min, safety
                )
                gamma = float(p.get("gamma", gamma_default))
                if gamma >= gamma_star:
                    if p.get("clamp_gamma", True):
                        warnings.warn(
                            f"requested gamma {gamma} inadmissible for class "
                            f"{clazz.name!r} (gamma_star={gamma_star:.6g}); clamping"
                        )
                        gamma = safety * gamma_star
                    else:
                        warnings.warn(
                            f"requested gamma {gamma} exceeds gamma_star="
                            f"{gamma_star:.6g} for class {clazz.name!r}; "
                            "keeping it (clamp_gamma false)"
                        )
            out.append(
                PrototypeConfig(
                    gamma=gamma,
                    a=a,
                    b=b,
                    epsilon=epsilon,
                    delta=float(p.get("delta", 1e-3)),
                    nu_x=float(p.get("nu_x", 0.0)),
                    k_prime=int(p.get("k_prime", 0)),
                    kappa=kappa,
                    d=d,
                )
            )
        return out

    def simulation_grid(self, horizon=None) -> tuple[float, float, int]:
        """(horizon, dt, record_every) of the simulation section, or of the
        given horizon on the section's dt and record_every.

        Rejects a horizon that is not a whole number of dt steps (relative
        tolerance 1e-9) and a record_every that does not divide that number.
        """
        sim = self.simulation
        horizon = float(sim.get("horizon", 10.0) if horizon is None else horizon)
        dt = float(sim.get("dt", 1e-3))
        record_every = int(sim.get("record_every", 10))
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
        sw = self.sweep or {}
        if "grid" in sw:
            return np.asarray(sw["grid"], dtype=float)
        count = int(sw.get("count", 11))
        lo, hi = self.classes[self.true_class].theta_range
        return np.linspace(lo, hi, count)


def _build_input(section: dict) -> "signals.InputSignal":
    kind = section.get("kind", "sin")
    if kind == "sin":
        return signals.sin_input()
    if kind == "degenerate":
        return signals.degenerate_xi(float(section.get("t0", 0.0)))
    raise ValueError(f"unknown input kind {kind!r}")


def _build_plant(section: dict) -> PlantSpec:
    """The plant of the config; phi_min is the slope of the phi kind, and a
    phi_min or phi_max key may only repeat it."""
    kind = section.get("phi", "identity")
    slope = float(section.get("slope", 1.0))
    if kind not in _PHI_KINDS:
        raise ValueError(f"unknown phi kind {kind!r}")
    phi_min = slope if kind == "linear" else 1.0
    for key in ("phi_min", "phi_max"):
        if key in section and float(section[key]) != phi_min:
            raise ValueError(f"plant {key} {section[key]} differs from the slope "
                             f"{phi_min} of phi kind {kind!r}")
    return PlantSpec(
        phi=_PHI_KINDS[kind](slope),
        phi_min=phi_min,
        s0_range=tuple(section.get("s0_range", [0.0, 1.0])),
        noise_bound=float(section.get("noise_bound", 0.0)),
    )


def load_config(path_or_dict) -> ExperimentConfig:
    """Parse and validate an experiment configuration."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    try:
        classes_raw = raw["classes"]
        true_section = raw["true"]
    except KeyError as exc:
        raise ValueError(f"config missing required section {exc}") from exc
    if not classes_raw:
        raise ValueError("config declares no signal classes")

    inp = _build_input(raw.get("input", {}))
    classes = []
    for i, c in enumerate(classes_raw):
        classes.append(
            signals.builtin_class(
                c["family"],
                theta_range=tuple(c.get("theta_range", [0.5, 2.0])),
                xi_sup=inp.xi_sup,
                id=i,
            )
        )
    true_class = int(true_section["class"])
    true_theta = float(true_section["theta"])
    if not 0 <= true_class < len(classes):
        raise ValueError(f"true class index {true_class} out of range")
    lo, hi = classes[true_class].theta_range
    if not lo <= true_theta <= hi:
        raise ValueError(f"true theta {true_theta} outside declared range [{lo}, {hi}]")

    prototype = dict(raw.get("prototype", {}))
    if "a" not in prototype or "b" not in prototype:
        raise ValueError("prototype section must set read-back bounds a and b")
    a, b = float(prototype["a"]), float(prototype["b"])
    for clazz in classes:
        if not (a < clazz.theta_range[0] and b > clazz.theta_range[1]):
            raise ValueError(
                f"(a, b) = ({a}, {b}) must strictly contain the parameter "
                f"range of class {clazz.name!r}"
            )

    cfg = ExperimentConfig(
        raw=raw,
        name=str(raw.get("name", "experiment")),
        classes=classes,
        inp=inp,
        plant=_build_plant(raw.get("plant", {})),
        true_class=true_class,
        true_theta=true_theta,
        prototype=prototype,
        simulation=dict(raw.get("simulation", {})),
        decision=dict(raw.get("decision", {})),
        rnn=dict(raw.get("rnn", {})),
        sweep=dict(raw.get("sweep", {})),
        hash=config_hash(raw),
    )
    cfg.simulation_grid()
    return cfg
