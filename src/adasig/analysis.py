"""Post-hoc verification of the guarantees: filtered excitation, winding
accounting, entry/residence diagnostics, and state bounds.

Everything here is pure post-processing over immutable trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import Trajectory
from .plant import PlantSpec
from .prototype import PrototypeConfig
from .signals import SignalClass


@dataclass(frozen=True)
class PEReport:
    """Empirical certificate that filtering preserves persistent excitation.

    delta_lower is the drive u's worst-window integral floor on windows of
    length L = L_window; condition_ok records (delta_lower/L)^2 - Delta*u_inf
    > 0; delta_star is the filtered output z's worst-window floor on the
    same length, and p = delta_star / ((delta_lower/L)^2 - Delta*u_inf).
    """

    L_window: float
    delta_lower: float
    condition_ok: bool
    delta_star: float
    p: float

    @property
    def ok(self) -> bool:
        return self.condition_ok and self.delta_star > 0


@dataclass(frozen=True)
class ConvergenceReport:
    """Entry and residence of one class's estimate, as convergence.json
    records it. vacuous: bound_used reaches b - a, so every estimate in the
    read-back interval lies inside the bound and the entry time tells
    nothing."""

    entry_time: Optional[float]
    residence: float
    winding_spent: float
    bound_used: float
    horizon: float
    entered: bool
    vacuous: bool


def _window_integrals(vals: np.ndarray, dt: float, L: float) -> np.ndarray:
    """Trapezoidal integrals of |vals| over every window of length L."""
    w = int(round(L / dt))
    if w < 1 or w >= len(vals):
        raise ValueError("window length outside the sampled range")
    a = np.abs(vals)
    cum = np.concatenate([[0.0], np.cumsum((a[1:] + a[:-1]) * 0.5 * dt)])
    return cum[w:] - cum[:-w]


def verify_filtered_pe(
    z_traj: np.ndarray,
    u_traj: np.ndarray,
    dt: float,
    L: float,
    Delta: float = 0.0,
) -> PEReport:
    """Check that a persistently exciting drive stays exciting after filtering.

    z is the filtered response to the drive u (both sampled on the same
    uniform grid with step dt).  Measures the drive's own floor delta_lower
    (the smallest integral of |u| over a window of length L), then the sign
    condition (delta_lower/L)^2 - Delta*u_inf > 0 with u_inf = max |u|,
    then z's own floor delta_star on windows of the same length L; a
    window of length L where z is quiet gives delta_star = 0, and ok is false.
    """
    z = np.asarray(z_traj, dtype=float)
    u = np.asarray(u_traj, dtype=float)
    if z.shape != u.shape:
        raise ValueError("z and u must share the sampling grid")
    u_inf = float(np.max(np.abs(u)))

    delta_lower = float(np.min(_window_integrals(u, dt, L)))
    margin = (delta_lower / L) ** 2 - Delta * u_inf
    condition_ok = margin > 0

    # z's floor on the drive's own window length. The length is fixed: a
    # longer window only adds |z| >= 0, so a floor free to pick it cannot fail.
    delta_star = float(np.min(_window_integrals(z, dt, L)))
    p = delta_star / margin if condition_ok else math.nan
    return PEReport(
        L_window=L,
        delta_lower=delta_lower,
        condition_ok=condition_ok,
        delta_star=delta_star,
        p=p,
    )


def _winding_spent(traj: Trajectory, config: PrototypeConfig, class_index: int) -> float:
    """gamma times the trapezoidal integral of max(|shat - s| - epsilon, 0).

    An unperturbed (delta = 0) admissible run spends at most the budget
    pi - nu_x + 2*pi*k'; with delta > 0 the rotator accrues extra phase by
    design."""
    shat = traj.subsystem(class_index)[:, 0]
    e = np.maximum(np.abs(shat - traj.states[:, 0]) - config.epsilon, 0.0)
    return config.gamma * float(np.trapezoid(e, traj.times))


def convergence_report(
    traj: Trajectory,
    clazz: SignalClass,  # unused; kept while perfbench calls with six positional arguments
    true_theta: float,
    bound: float,
    config: PrototypeConfig,
    class_index: int = 0,
) -> ConvergenceReport:
    """Entry time into |theta_hat - true_theta| <= bound, and the longest
    residence interval after entry.

    Every shipped family is injective, so E(true_theta) = {true_theta} and
    the distance to it is |theta_hat - true_theta|; a non-injective family
    is not implemented."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    inside = np.abs(traj.theta_hat[:, class_index] - true_theta) <= bound

    entry_time: Optional[float] = None
    residence = 0.0
    idx = np.nonzero(inside)[0]
    if len(idx):
        entry_time = float(traj.times[idx[0]])
        # longest maximal run of consecutive inside samples
        breaks = np.nonzero(np.diff(idx) > 1)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(idx) - 1]])
        run_lengths = traj.times[idx[ends]] - traj.times[idx[starts]]
        residence = float(np.max(run_lengths))

    return ConvergenceReport(
        entry_time=entry_time,
        residence=residence,
        winding_spent=_winding_spent(traj, config, class_index),
        bound_used=bound,
        horizon=float(traj.times[-1]),
        entered=entry_time is not None,
        vacuous=bool(bound >= config.b - config.a),
    )


STATE_BOUND_TOL = 1e-6  # rounding a recorded state may exceed its bound by


def check_state_bounds(
    traj: Trajectory,
    configs,
    d_theta: float,
    plant: PlantSpec,
) -> list[str]:
    """Verify the analytic a-priori bounds on every recorded state.

    |x_i|, |y_i| <= max{1, r_i(0)} + tol and
    |shat_i| <= |shat_i(0)| + plant.radius(max{|a|,|b|} * D_theta) + tol,
    with tol = STATE_BOUND_TOL; plant.radius(sup) is (sup + noise_bound)/phi_min.
    """
    violations = []
    for i, cfg in enumerate(configs):
        shat, x, y = traj.subsystem(i).T
        r0 = math.hypot(x[0], y[0])
        lim_xy = max(1.0, r0) + STATE_BOUND_TOL
        radius = plant.radius(max(abs(cfg.a), abs(cfg.b)) * d_theta)
        lim_s = abs(shat[0]) + radius + STATE_BOUND_TOL
        if np.max(np.abs(x)) > lim_xy or np.max(np.abs(y)) > lim_xy:
            violations.append(f"class {i + 1}: rotator state exceeds {lim_xy:.6g}")
        if np.max(np.abs(shat)) > lim_s:
            violations.append(f"class {i + 1}: filter state exceeds {lim_s:.6g}")
    return violations
