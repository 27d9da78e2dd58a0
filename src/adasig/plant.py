"""Measurement plant: a convergent first-order filter driven by the signal.

The measured quantity s(t) solves  s' = -phi(s) + f(xi(t), theta) + eta(t),
where phi has slope at least phi_min > 0, so the filter forgets its initial
condition exponentially, and eta is bounded noise. The phi kinds a config
can name are linear, and phi_min is their slope.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .signals import SignalClass

__all__ = ["PlantSpec", "plant_rhs", "make_noise"]


@dataclass
class PlantSpec:
    phi: Callable[[float], float]
    phi_min: float = 1.0
    s0_range: tuple[float, float] = (0.0, 1.0)
    noise_bound: float = 0.0

    def __post_init__(self):
        if self.phi_min <= 0:
            raise ValueError("need phi_min > 0")
        if self.noise_bound < 0:
            raise ValueError("noise bound must be non-negative")


def plant_rhs(
    s: float,
    xi_val: float,
    clazz: SignalClass,
    theta: float,
    spec: PlantSpec,
    eta: float = 0.0,
) -> float:
    """-phi(s) + f(xi, theta) + eta, given the input value xi = xi(t)."""
    drive = float(clazz.f(xi_val, theta))
    return -spec.phi(s) + drive + eta


def make_noise(spec: PlantSpec, n_steps: int, seed: int) -> np.ndarray:
    """Per-step noise values, held constant over each integration step:
    a seeded uniform draw in [-noise_bound, noise_bound]."""
    if spec.noise_bound == 0.0:
        return np.zeros(n_steps)
    rng = np.random.default_rng(seed)
    return rng.uniform(-spec.noise_bound, spec.noise_bound, n_steps)
