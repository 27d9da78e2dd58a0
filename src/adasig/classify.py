"""The windowed decision rule over recorded read-outs.

A class is accepted when its filter mismatch |h_f,i| stays inside a band
over a full window of length T_star; the parameter estimate is the window
average of the read-back h_theta,i of the accepted class.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .integrator import Trajectory

__all__ = ["DecisionReport", "decide", "band_from_noise"]


@dataclass
class DecisionReport:
    decided: Optional[int]  # class index (0-based) or None
    theta_estimate: Optional[float]
    t_prime: Optional[float]
    T_star: float
    band_hf: float
    band_theta: Optional[float]
    status: str  # decided | undecided | ambiguous
    per_class: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def band_from_noise(delta_eta: float, phi_min: float) -> float:
    """The growth delta_eta/phi_min of the h_f band under noise of level delta_eta."""
    if delta_eta < 0 or phi_min <= 0:
        raise ValueError("need delta_eta >= 0 and phi_min > 0")
    return delta_eta / phi_min


def decide(
    traj: Trajectory,
    T_star: float,
    eps: float,
    D_of_noise: float = 0.0,
    settle: Optional[float] = None,
    band_theta: Optional[float] = None,
) -> DecisionReport:
    """Earliest-window decision over a recorded trajectory.

    Finds the earliest t' <= settle such that sup over [t', t' + T_star] of
    |h_f,i| < eps + D_of_noise for exactly one class; several qualifying
    classes at that instant -> ambiguous, none ever -> undecided.
    """
    m = traj.n_classes
    if m == 0:
        raise ValueError("trajectory has no classifier subsystems")
    times = traj.times
    dt_rec = times[1] - times[0]
    w = int(round(T_star / dt_rec)) + 1
    if w > len(times):
        raise ValueError("horizon shorter than the decision window")
    band = eps + D_of_noise
    if settle is None:
        settle = times[-1] - times[0] - T_star

    hf = np.stack(
        [np.abs(traj.column(f"hf_{i+1}")) for i in range(m)]
    )  # (m, n)
    win_max = sliding_window_view(hf, w, axis=1).max(axis=-1)  # (m, n-w+1)
    t_candidates = times[: win_max.shape[1]]
    eligible = t_candidates - times[0] <= settle + 1e-12
    qualifies = (win_max < band) & eligible

    per_class = [
        {
            "min_window_sup_hf": float(win_max[i].min()),
            "theta_hat_final": float(traj.column(f"theta_hat_{i+1}")[-1]),
        }
        for i in range(m)
    ]
    any_q = qualifies.any(axis=0)
    decided = theta_estimate = t_prime = None
    if not any_q.any():
        status = "undecided"
    else:
        k = int(np.argmax(any_q))
        winners = np.nonzero(qualifies[:, k])[0]
        t_prime = float(t_candidates[k])
        if len(winners) > 1:
            status = "ambiguous"
        else:
            status = "decided"
            decided = int(winners[0])
            window = traj.column(f"theta_hat_{decided+1}")[k : k + w]
            theta_estimate = float(window.mean())
    return DecisionReport(
        decided=decided,
        theta_estimate=theta_estimate,
        t_prime=t_prime,
        T_star=T_star,
        band_hf=band,
        band_theta=band_theta,
        status=status,
        per_class=per_class,
    )
