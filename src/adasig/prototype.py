"""Per-class classifier dynamics and the explicit tuning inequalities.

Each class i gets a three-state subsystem: a filter copy shat_i driven by the
family evaluated at the current parameter estimate, and a planar rotator
(x_i, y_i) on the unit circle whose angular speed is proportional to the
dead-zone mismatch between shat_i and the measurement. The estimate is read
back from x_i via an affine cosine map over [a, b]. The rotator therefore
sweeps candidate parameters and stalls where the mismatch vanishes; a small
constant delta in the gain keeps the sweep alive under perturbations
(structural stability), turning the stall into a long but finite residence.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .signals import SignalClass

__all__ = [
    "PrototypeConfig",
    "TuningReport",
    "theta_hat",
    "subsystem_constants",
    "prototype_rhs",
    "compute_c",
    "tune_gamma",
    "tune_hstar",
    "choose_winding",
    "compute_L",
    "error_bound",
    "init_state",
]


@dataclass
class PrototypeConfig:
    gamma: float
    a: float
    b: float
    epsilon: float = 0.0
    delta: float = 0.0
    nu_x: float = 0.0
    k_prime: int = 0
    kappa: float = 2.0
    d: float = 0.5

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not self.a < self.b:
            raise ValueError("need a < b")
        if self.epsilon < 0 or self.delta < 0:
            raise ValueError("epsilon and delta must be non-negative")
        if not 0.0 <= self.nu_x <= 2 * math.pi:
            raise ValueError("nu_x must lie in [0, 2*pi]")
        if self.k_prime < 0:
            raise ValueError("k_prime must be non-negative")
        if not self.kappa > 1 or not 0 < self.d < 1:
            raise ValueError("need kappa > 1 and d in (0, 1)")


def theta_hat(x: float, a: float, b: float) -> float:
    """Affine read-back of the parameter estimate from the rotator state."""
    return a + (b - a) / 2.0 * (x + 1.0)


def subsystem_constants(clazz: SignalClass, config: PrototypeConfig, offset: int = 0) -> tuple:
    """One bank entry for prototype_rhs: the index of the subsystem's shat in
    the state, the family's f, then a, (b - a)/2, gamma, epsilon and delta."""
    return (offset, clazz.f, config.a, (config.b - config.a) / 2.0,
            config.gamma, config.epsilon, config.delta)


def prototype_rhs(q, s, xi_val, bank: Sequence[tuple], phi: Callable[[float], float]) -> list:
    """Right-hand side of a bank of perturbed subsystems (delta = 0 is unperturbed).

    bank holds one subsystem_constants tuple per subsystem; subsystem i reads
    (shat, x, y) at q[offset_i : offset_i + 3], and the 3m derivatives come
    back as one list in bank order. Elementwise: floats when s is a float
    (the filter derivative goes through float(), since an f may return a
    numpy scalar), arrays for a block of sample rows when s is an array (phi
    and f must then accept arrays). The read-back is theta_hat written out,
    in the same association order, and the dead zone is
    max(|shat - s| - epsilon, 0).
    """
    rows = isinstance(s, np.ndarray)
    clip = np.maximum if rows else max
    out = []
    for i, f, a, half_span, gamma, epsilon, delta in bank:
        shat, x, y = q[i], q[i + 1], q[i + 2]
        ds = -phi(shat) + f(xi_val, a + half_span * (x + 1.0))
        g = gamma * (clip(abs(shat - s) - epsilon, 0.0) + delta)
        r2 = x * x + y * y
        out += (ds if rows else float(ds), g * (x - y - x * r2), g * (x + y - y * r2))
    return out


def compute_c(d_theta: float, phi_min: float, a: float, b: float) -> float:
    """Gain from worst-case estimate error to steady filter mismatch."""
    if phi_min <= 0:
        raise ValueError("phi_min must be positive")
    if not b > a:
        raise ValueError("need b > a")
    return d_theta / phi_min * (b - a) / 2.0


def tune_gamma(
    kappa: float,
    d: float,
    c: float,
    phi_min: float,
    safety: float = 0.5,
) -> tuple[float, float]:
    """Supremum of admissible rotation gains, and a working gain inside it.

    Returns (gamma_star, gamma = safety * gamma_star). A degenerate family
    (c = 0) puts no constraint on gamma; the supremum is reported as inf.
    """
    if not kappa > 1 or not 0 < d < 1:
        raise ValueError("need kappa > 1 and d in (0, 1)")
    if not 0 < safety < 1:
        raise ValueError("safety must be in (0, 1)")
    if c < 0:
        raise ValueError("c must be non-negative")
    if c == 0:
        warnings.warn("c = 0: rotation gain is unconstrained, returning inf")
        return math.inf, math.inf
    gamma_star = (phi_min / c) / (
        math.log(kappa / d) * kappa / (kappa - 1.0) * (2.0 + kappa / (1.0 - d))
    )
    return gamma_star, safety * gamma_star


def tune_hstar(
    s_min: float,
    s_max: float,
    d_theta: float,
    a: float,
    b: float,
    phi_min: float,
    gamma_star: float,
    kappa: float,
    d: float,
    c: float,
) -> float:
    """Minimal initial phase budget guaranteeing trapped convergence.

    Requires gamma_star strictly inside the admissible range; at the boundary
    the denominator vanishes and no finite budget works.
    """
    numerator = (s_max - s_min) + d_theta * (b - a) / phi_min
    denominator = (
        phi_min / gamma_star / math.log(kappa / d) * (kappa - 1.0) / kappa
        - c * (2.0 + kappa / (1.0 - d))
    )
    if denominator <= 0:
        raise ValueError(
            "phase-budget denominator is non-positive; pick a smaller gamma_star"
        )
    return numerator / denominator


def choose_winding(h_star: float, nu_x: float) -> int:
    """Smallest k' with -nu_x + 2*pi*k' >= h_star (worst case over [a, b])."""
    if h_star < 0:
        raise ValueError("h_star must be non-negative")
    if not 0.0 <= nu_x <= 2 * math.pi:
        raise ValueError("nu_x must lie in [0, 2*pi]")
    k = math.ceil((h_star + nu_x) / (2 * math.pi))
    return max(k, 0)


def compute_L(window_T: float, rho_of_span: float, d_f: float) -> float:
    """Integration window max{2T, rho(b-a)/D_f} used by the accuracy bound."""
    if d_f <= 0:
        raise ValueError("degenerate signal family: D_f must be positive")
    return max(2.0 * window_T, rho_of_span / d_f)


def error_bound(
    delta_eta: float,
    d_theta: float,
    a: float,
    b: float,
    d_f: float,
    L: float,
    rho_inverse: Callable[[float], float],
) -> float:
    """Guaranteed accuracy radius rho^{-1}((8 D_eta D_theta (b-a) D_f^2 L^2)^(1/4))."""
    if delta_eta < 0:
        raise ValueError("noise bound must be non-negative")
    inner = (8.0 * delta_eta * d_theta * (b - a) * d_f**2 * L**2) ** 0.25
    return float(rho_inverse(inner))


def init_state(config, shat0: float) -> tuple[float, float, float]:
    """Initial subsystem state (shat0, cos nu_x, sin nu_x): the filter copy at
    shat0 and the rotator on the unit circle at phase nu_x. config is a
    PrototypeConfig or a SigmoidNetwork; both carry nu_x.

    The winding budget k' is an accounting device for the phase integral, not
    a property of the initial point: all windings share the same (x, y).
    """
    return shat0, math.cos(config.nu_x), math.sin(config.nu_x)


@dataclass
class TuningReport:
    c: float
    gamma_star: float
    gamma: float
    h_star: float
    k_prime: int
    L: float
    error_bound: float
    epsilon: float
    delta: float
    T_L_star_note: str = (
        "T'_max and (L*, delta*) are proof-internal existence constants; "
        "they are measured empirically by the sweep and PE reports."
    )
