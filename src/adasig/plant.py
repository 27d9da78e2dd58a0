"""Measurement plant: a convergent first-order filter driven by the signal.

The measured quantity s(t) solves  s' = -phi_min * s + f(xi(t), theta) + eta(t)
with phi_min > 0, so the filter forgets its initial condition exponentially,
and eta is bounded noise. The paper allows any phi with slope at least
phi_min; the plant here is the linear phi(s) = phi_min * s, the only one a
config can name. The right-hand side is written out in
integrator.integrate_system's stage function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlantSpec:
    phi_min: float = 1.0
    s0_range: tuple[float, float] = (0.0, 1.0)
    noise_bound: float = 0.0

    def __post_init__(self):
        for name, value in [("phi_min", self.phi_min), ("noise_bound", self.noise_bound),
                            *(("s0_range", v) for v in self.s0_range)]:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, ok, rule in [("phi_min", self.phi_min > 0, "positive"),
                               ("noise_bound", self.noise_bound >= 0, "non-negative"),
                               ("s0_range", self.s0_range[0] <= self.s0_range[1],
                                "an interval with lo <= hi")]:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def radius(self, drive_sup: float = 0.0) -> float:
        """(drive_sup + noise_bound)/phi_min: the filter driven by |f| <= drive_sup
        settles within it of zero; radius() is the noise band Delta."""
        return (drive_sup + self.noise_bound) / self.phi_min


def make_noise(spec: PlantSpec, n_steps: int, seed: int) -> np.ndarray:
    """Per-step noise values, held constant over each integration step:
    a seeded uniform draw in [-noise_bound, noise_bound]."""
    if spec.noise_bound == 0.0:
        return np.zeros(n_steps)
    rng = np.random.default_rng(seed)
    return rng.uniform(-spec.noise_bound, spec.noise_bound, n_steps)
