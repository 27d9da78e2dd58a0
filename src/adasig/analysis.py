"""Post-hoc verification of the guarantees: filtered excitation, winding
accounting, entry/residence diagnostics, and state bounds.

Everything here is pure post-processing over immutable trajectories.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .integrator import Trajectory
from .prototype import PrototypeConfig
from .signals import SignalClass, set_distance

__all__ = [
    "PEReport",
    "ConvergenceReport",
    "verify_filtered_pe",
    "convergence_report",
    "check_state_bounds",
]


@dataclass
class PEReport:
    """Empirical certificate that filtering preserves persistent excitation.

    The drive u satisfies a per-window integral floor (L_window, delta_lower);
    condition_ok records (delta/L)^2 - Delta*u_inf > 0; the scan then
    exhibits a concrete (L_star, delta_star) for the filtered output z and
    the proportionality constant p = delta_star / ((delta/L)^2 - Delta*u_inf).
    """

    L_window: float
    delta_lower: float
    condition_ok: bool
    L_star: float
    delta_star: float
    p: float
    integral_samples: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.condition_ok and self.delta_star > 0


@dataclass
class ConvergenceReport:
    entry_time: Optional[float]
    residence: float
    winding_spent: float
    bound_used: float
    decided_class: Optional[int] = None
    horizon: float = 0.0

    @property
    def entered(self) -> bool:
        return self.entry_time is not None

    def to_dict(self) -> dict:
        return asdict(self) | {"entered": self.entered}


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
    delta: float,
    Delta: float = 0.0,
    u_inf: Optional[float] = None,
    n_window_scan: int = 24,
) -> PEReport:
    """Check that a persistently exciting drive stays exciting after filtering.

    z is the filtered response to the drive u (both sampled on the same
    uniform grid with step dt).  First verifies the drive's own floor
    (every window of length L has integral of |u| at least delta), then the
    sign condition (delta/L)^2 - Delta*u_inf > 0, then scans window lengths
    for the largest empirical floor (L_star, delta_star) of z.
    """
    z = np.asarray(z_traj, dtype=float)
    u = np.asarray(u_traj, dtype=float)
    if z.shape != u.shape:
        raise ValueError("z and u must share the sampling grid")
    if u_inf is None:
        u_inf = float(np.max(np.abs(u)))

    u_ints = _window_integrals(u, dt, L)
    delta_checked = float(np.min(u_ints))
    if delta_checked < delta - 1e-9:
        raise ValueError(
            f"drive violates its excitation floor: min window integral "
            f"{delta_checked:.6g} < delta={delta:.6g}"
        )
    margin = (delta / L) ** 2 - Delta * u_inf
    condition_ok = margin > 0

    # Scan candidate windows; keep the one with the best worst-window floor.
    best = (0.0, 0.0)  # (delta_star, L_star)
    samples: list[float] = []
    n = len(z)
    for wlen in np.linspace(L, (n - 1) * dt, n_window_scan):
        try:
            ints = _window_integrals(z, dt, float(wlen))
        except ValueError:
            continue
        floor = float(np.min(ints))
        samples.append(floor)
        if floor > best[0]:
            best = (floor, float(wlen))
    delta_star, L_star = best
    p = delta_star / margin if condition_ok and margin > 0 else math.nan
    return PEReport(
        L_window=L,
        delta_lower=delta_checked,
        condition_ok=condition_ok,
        L_star=L_star,
        delta_star=delta_star,
        p=p,
        integral_samples=samples,
    )


def _winding_spent(traj: Trajectory, config: PrototypeConfig, class_index: int) -> float:
    """gamma times the trapezoidal integral of max(|shat - s| - epsilon, 0).

    An unperturbed (delta = 0) admissible run spends at most the budget
    pi - nu_x + 2*pi*k'; with delta > 0 the rotator accrues extra phase by
    design."""
    s = traj.column("s")
    shat = traj.column(f"shat_{class_index + 1}")
    e = np.maximum(np.abs(shat - s) - config.epsilon, 0.0)
    return config.gamma * float(np.trapezoid(e, traj.times))


def convergence_report(
    traj: Trajectory,
    clazz: SignalClass,
    true_theta: float,
    bound: float,
    config: Optional[PrototypeConfig] = None,
    class_index: int = 0,
) -> ConvergenceReport:
    """Entry time into the bound-neighborhood of the equivalence set of the
    true parameter, and the longest residence interval after entry."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    target = clazz.equivalence(true_theta)
    th = traj.column(f"theta_hat_{class_index + 1}")
    inside = set_distance(th, target) <= bound

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
        winding_spent=0.0 if config is None else _winding_spent(traj, config, class_index),
        bound_used=bound,
        horizon=float(traj.times[-1]),
    )


def check_state_bounds(
    traj: Trajectory,
    configs,
    d_theta: float,
    noise_bound: float,
    phi_min: float,
    tol: float = 1e-6,
) -> list[str]:
    """Verify the analytic a-priori bounds on every recorded state.

    |x_i|, |y_i| <= max{1, r_i(0)} + tol and
    |shat_i| <= |shat_i(0)| + (max{|a|,|b|} * D_theta + noise_bound)/phi_min + tol.
    """
    violations = []
    for i, cfg in enumerate(configs, start=1):
        x = traj.column(f"x_{i}")
        y = traj.column(f"y_{i}")
        shat = traj.column(f"shat_{i}")
        r0 = math.hypot(x[0], y[0])
        lim_xy = max(1.0, r0) + tol
        lim_s = (
            abs(shat[0])
            + (max(abs(cfg.a), abs(cfg.b)) * d_theta + noise_bound) / phi_min
            + tol
        )
        if np.max(np.abs(x)) > lim_xy or np.max(np.abs(y)) > lim_xy:
            violations.append(f"class {i}: rotator state exceeds {lim_xy:.6g}")
        if np.max(np.abs(shat)) > lim_s:
            violations.append(f"class {i}: filter state exceeds {lim_s:.6g}")
    return violations
