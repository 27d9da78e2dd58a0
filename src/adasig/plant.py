"""Measurement plant: a convergent first-order filter driven by the signal.

The measured quantity s(t) solves  s' = -phi(s) + f(xi(t), theta) + eta(t),
where phi has slopes within [phi_min, phi_max] (both positive), so the filter
forgets its initial condition exponentially, and eta is bounded noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .signals import SignalClass

__all__ = ["PlantSpec", "plant_rhs", "verify_slope_bounds", "make_noise"]


@dataclass
class PlantSpec:
    phi: Callable[[float], float]
    phi_min: float = 1.0
    phi_max: float = 1.0
    s0_range: tuple[float, float] = (0.0, 1.0)
    noise_bound: float = 0.0
    noise: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.phi_min <= 0 or self.phi_max < self.phi_min:
            raise ValueError("need 0 < phi_min <= phi_max")
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


def make_noise(spec: PlantSpec, n_steps: int, t0: float, dt: float, seed: int) -> np.ndarray:
    """Per-step noise values, held constant over each integration step.

    If the spec carries an explicit noise signal it is sampled at step
    midpoints; otherwise a seeded uniform draw in [-noise_bound, noise_bound].
    """
    if spec.noise is not None:
        ts = t0 + (np.arange(n_steps) + 0.5) * dt
        vals = np.array([float(spec.noise(t)) for t in ts])
        if np.any(np.abs(vals) > spec.noise_bound + 1e-12):
            raise ValueError("supplied noise exceeds the declared bound")
        return vals
    if spec.noise_bound == 0.0:
        return np.zeros(n_steps)
    rng = np.random.default_rng(seed)
    return rng.uniform(-spec.noise_bound, spec.noise_bound, n_steps)


@dataclass
class SlopeReport:
    phi_min_observed: float
    phi_max_observed: float
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_slope_bounds(spec: PlantSpec, grid: np.ndarray, tol: float = 1e-6) -> SlopeReport:
    """Finite-difference check that phi's slopes stay within the declared band."""
    g = np.asarray(grid, dtype=float)
    vals = np.array([spec.phi(x) for x in g])
    slopes = np.diff(vals) / np.diff(g)
    report = SlopeReport(float(slopes.min()), float(slopes.max()))
    low = slopes < spec.phi_min - tol
    high = slopes > spec.phi_max + tol
    for idx in np.nonzero(low | high)[0]:
        report.violations.append(
            f"slope {slopes[idx]:.6g} at s in [{g[idx]:.4g}, {g[idx+1]:.4g}] "
            f"outside [{spec.phi_min}, {spec.phi_max}]"
        )
    return report
