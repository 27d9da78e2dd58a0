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
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class PrototypeConfig:
    gamma: float
    a: float
    b: float
    epsilon: float = 0.0
    delta: float = 0.0
    nu_x: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "a", "b", "epsilon", "delta", "nu_x"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, ok, rule in [("gamma", self.gamma > 0, "positive"),
                               ("b", self.a < self.b, f"above a = {self.a!r}"),
                               ("epsilon", self.epsilon >= 0, "non-negative"),
                               ("delta", self.delta >= 0, "non-negative"),
                               ("nu_x", 0 <= self.nu_x <= 2 * math.pi, "in [0, 2 pi]")]:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def theta_hat(x: float, a: float, b: float) -> float:
    """Affine read-back of the parameter estimate from the rotator state."""
    return a + (b - a) / 2.0 * (x + 1.0)


def prototype_rhs(q, s, xi_val, kernel: Callable) -> list:
    """Right-hand side of a bank of perturbed subsystems (delta = 0 is unperturbed).

    kernel is bank_kernel(bank, phi_min) for the bank; subsystem i reads
    (shat, x, y) at q[1 + 3i : 4 + 3i], behind the measurement's slot q[0],
    and the 3m derivatives come back as one list in bank order. Each filter
    copy sees the plant's phi(shat) = phi_min * shat. Elementwise: floats
    give floats, and arrays for a block of sample rows give arrays (f must
    then accept arrays). The read-back is theta_hat written out, in the
    same association order, and the dead zone is max(|shat - s| - epsilon, 0).
    """
    return kernel(q, s, xi_val)


def bank_kernel(bank: Sequence[tuple], phi_min: float) -> Callable:
    """prototype_rhs's kernel for this bank, compiled from straight-line source.

    bank holds one (SignalClass, PrototypeConfig) pair per subsystem, and
    subsystem i sits at q[1 + 3i]. The offsets and every constant (a,
    (b - a)/2, gamma, epsilon, delta and phi_min) are written into the
    source as parenthesised repr literals, which give the floats back bit
    for bit (a non-finite one raises ValueError, as it has no literal); the
    families' f are bound as globals f0..f{m-1}, and abs is the only other
    name the source calls, so one source serves Python floats and numpy row
    blocks alike. Subsystem i's (shat, x, y) go into shat{i}, x{i}, y{i},
    and the 3m derivatives come back in one list display. The dead zone is
    written ((v + abs(v)) * 0.5): v + |v| is exactly 2v or +0.0, so it has
    the bits of max(v, 0.0), nan included, until |shat - s| passes half the
    float range (2v overflows to inf there, on a run that already
    diverges). The source is the function's __doc__.
    """
    def lit(value):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"bank constant {value!r} is not finite")
        return f"({value!r})"

    namespace, lines, derivatives = {}, [], []
    for i, (clazz, c) in enumerate(bank):
        namespace[f"f{i}"] = clazz.f
        lines += [f"shat{i}, x{i}, y{i} = q[{3 * i + 1}], q[{3 * i + 2}], q[{3 * i + 3}]",
                  f"v{i} = abs(shat{i} - s) - {lit(c.epsilon)}",
                  f"g{i} = {lit(c.gamma)} * (((v{i} + abs(v{i})) * 0.5) + {lit(c.delta)})",
                  f"r{i} = x{i} * x{i} + y{i} * y{i}"]
        derivatives += [f"-{lit(phi_min)} * shat{i} + "
                        f"f{i}(xi_val, {lit(c.a)} + {lit((c.b - c.a) / 2.0)} * (x{i} + 1.0))",
                        f"g{i} * (x{i} - y{i} - x{i} * r{i})",
                        f"g{i} * (x{i} + y{i} - y{i} * r{i})"]
    src = "\n    ".join(["def rhs(q, s, xi_val):", *lines,
                         f"return [{', '.join(derivatives)}]"]) + "\n"
    exec(compile(src, f"<bank_kernel m={len(bank)}>", "exec"), namespace)
    kernel = namespace["rhs"]
    kernel.__doc__ = src
    return kernel


def compute_c(d_theta: float, phi_min: float, a: float, b: float) -> float:
    """Gain from worst-case estimate error to steady filter mismatch."""
    return d_theta / phi_min * (b - a) / 2.0


def tune_gamma(
    kappa: float,
    d: float,
    c: float,
    phi_min: float,
    safety: float = 0.5,
) -> tuple[float, float]:
    """Supremum of admissible rotation gains, and a working gain inside it.

    Returns (gamma_star, gamma = safety * gamma_star).
    """
    for name, value, ok, rule in [("kappa", kappa, kappa > 1, "greater than 1"),
                                  ("d", d, 0 < d < 1, "in (0, 1)"),
                                  ("safety", safety, 0 < safety < 1, "in (0, 1)"),
                                  ("c", c, c > 0, "positive")]:
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")
    gamma_star = (phi_min / c) / (
        math.log(kappa / d) * kappa / (kappa - 1.0) * (2.0 + kappa / (1.0 - d))
    )
    return gamma_star, safety * gamma_star


def budget_denominator(phi_min: float, gamma: float, kappa: float, d: float, c: float) -> float:
    """Denominator of tune_hstar's phase budget at gain gamma > 0: the one test
    of an admissible gain, positive below gamma_star and zero at it."""
    return (phi_min / gamma / math.log(kappa / d) * (kappa - 1.0) / kappa
            - c * (2.0 + kappa / (1.0 - d)))


def tune_hstar(
    s_min: float,
    s_max: float,
    d_theta: float,
    a: float,
    b: float,
    phi_min: float,
    gamma: float,
    kappa: float,
    d: float,
    c: float,
) -> float:
    """Minimal initial phase budget guaranteeing trapped convergence at gain gamma.

    Requires a positive budget_denominator, which holds strictly below the
    supremum gamma_star; at gamma_star it vanishes and no finite budget works.
    """
    numerator = (s_max - s_min) + d_theta * (b - a) / phi_min
    denominator = budget_denominator(phi_min, gamma, kappa, d, c)
    if denominator <= 0:
        raise ValueError(
            "phase-budget denominator is non-positive; pick a smaller gamma"
        )
    return numerator / denominator


def choose_winding(h_star: float, nu_x: float) -> int:
    """Smallest k' with -nu_x + 2*pi*k' >= h_star (worst case over [a, b])."""
    if h_star < 0:
        raise ValueError("h_star must be non-negative")
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
    inner = (8.0 * delta_eta * d_theta * (b - a) * d_f**2 * L**2) ** 0.25
    return float(rho_inverse(inner))


@dataclass(frozen=True)
class TuningReport:
    """The tuning of one class, as tuning.json records it. vacuous:
    error_bound reaches b - a, the width of the read-back interval, so the
    accuracy radius excludes no estimate."""

    c: float
    gamma_star: float
    gamma: float
    h_star: float
    k_prime: int
    L: float
    error_bound: float
    epsilon: float
    delta: float
    vacuous: bool
