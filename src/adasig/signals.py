"""Signal families, input signals, the set distance and the excitation envelope.

A signal family is a scalar map f(xi, theta) together with the interval of
admissible parameters, a declared equivalence structure (parameter values
that produce identical signals), and Lipschitz constants in theta and xi.
Classification of a measured signal is only meaningful up to the declared
equivalence sets, so those are part of the family definition rather than
something the library tries to discover.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SignalClass",
    "InputSignal",
    "RhoEnvelope",
    "set_distance",
    "persistency_envelope",
    "degenerate_xi",
    "builtin_class",
    "sin_input",
    "BUILTIN_FAMILIES",
]


def set_distance(x, intervals: Sequence[tuple[float, float]]):
    """Distance from x to a finite union of closed intervals (points as [p, p]).

    Elementwise in x: a float gives a float, an array an array.
    """
    if len(intervals) == 0:
        raise ValueError("set_distance of an empty set is undefined")
    x = np.asarray(x, dtype=float)
    dist = np.min([np.maximum(np.maximum(lo - x, x - hi), 0.0) for lo, hi in intervals], axis=0)
    return dist if dist.ndim else float(dist)


@dataclass
class SignalClass:
    """One signal family f(xi, theta) with its equivalence structure.

    equivalence maps theta to a finite list of (lo, hi) intervals; singleton
    parameter values are represented as degenerate intervals. The declared
    lipschitz_theta / lipschitz_xi constants are upper bounds on the slopes
    of f over theta_range.
    """

    name: str
    f: Callable[[np.ndarray, float], np.ndarray]
    theta_range: tuple[float, float]
    equivalence: Callable[[float], list[tuple[float, float]]]
    lipschitz_theta: float
    lipschitz_xi: float

    def __post_init__(self):
        lo, hi = self.theta_range
        if not lo < hi:
            raise ValueError(f"theta_range must be a proper interval, got {self.theta_range}")

    def equivalence_set(self, theta: float) -> list[tuple[float, float]]:
        sets = self.equivalence(theta)
        if set_distance(theta, sets) > 0:
            raise ValueError(f"declared equivalence set for theta={theta} does not contain theta")
        return sets


@dataclass
class InputSignal:
    """Known scalar input xi(t) with bounds on its magnitude and slope."""

    xi: Callable[[np.ndarray], np.ndarray]
    xi_sup: float
    dxi_sup: float


def persistency_envelope(
    clazz: SignalClass,
    inp: InputSignal,
    theta_ref: float,
    separations: Sequence[float],
    window_T: float,
    horizon: float,
    dt: float = 1e-3,
) -> list[tuple[float, float]]:
    """Samples of the rho lower envelope around a fixed reference theta.

    For each separation, theta = theta_ref + separation: [0, horizon] is
    tiled with windows of length window_T, the maximum of
    |f(xi, theta) - f(xi, theta_ref)| is taken inside each window, and the
    minimum over windows is the worst-window gap. Returns one
    (dist(theta, E(theta_ref)), worst-window gap) pair per separation, in
    the order given.
    """
    if window_T <= 0 or dt <= 0:
        raise ValueError("window_T and dt must be positive")
    if horizon < window_T:
        raise ValueError("horizon must cover at least one window")
    t = np.arange(0.0, horizon + dt / 2, dt)
    xi = inp.xi(t)
    per_win = int(round(window_T / dt))
    n_win = len(t) // per_win
    f_ref = clazz.f(xi, theta_ref)
    target = clazz.equivalence_set(theta_ref)
    samples = []
    for sep in separations:
        theta = theta_ref + sep
        gap = np.abs(clazz.f(xi, theta) - f_ref)
        window_max = gap[: n_win * per_win].reshape(n_win, per_win).max(axis=1)
        samples.append((set_distance(theta, target), float(window_max.min())))
    return samples


class RhoEnvelope:
    """Monotone lower-envelope model of the excitation function rho.

    Built from sampled (separation, deviation) pairs; regularized to be
    non-decreasing so that an inverse exists. Evaluating the inverse outside
    the certified range extrapolates linearly and emits a warning.
    """

    def __init__(self, samples: Sequence[tuple[float, float]]):
        pts = sorted((s, d) for s, d in samples)
        if not pts or pts[0][0] < 0:
            raise ValueError("need samples at non-negative separations")
        seps = np.array([0.0] + [p[0] for p in pts])
        devs = np.array([0.0] + [p[1] for p in pts])
        self.seps = seps
        self.devs = np.maximum.accumulate(devs)

    def __call__(self, sep: float) -> float:
        if sep > self.seps[-1]:
            warnings.warn("rho evaluated beyond the certified separation range")
        return float(np.interp(sep, self.seps, self.devs))

    def inverse(self, value: float) -> float:
        """Class-K inverse of the envelope; warns when extrapolating."""
        if value <= 0:
            return 0.0
        if value > self.devs[-1]:
            warnings.warn("rho inverse evaluated beyond the certified range; extrapolating")
            # continue with the slope of the last strictly increasing segment
            inc = np.nonzero(np.diff(self.devs) > 0)[0]
            if len(inc) == 0:
                return math.inf
            k = inc[-1]
            slope = (self.seps[k + 1] - self.seps[k]) / (self.devs[k + 1] - self.devs[k])
            return float(self.seps[-1] + (value - self.devs[-1]) * slope)
        return float(np.interp(value, self.devs, self.seps))


def degenerate_xi(t0: float = 0.0) -> InputSignal:
    """Input whose quiet intervals grow without bound.

    xi(t) = sin^2(ln(t - t0 + 1)) while sin(ln(t - t0 + 1)) >= 0, else 0.
    On long runs the zero stretches eventually exceed any fixed observation
    window, which defeats parameter recovery.
    """
    if t0 < 0:
        raise ValueError("t0 must be non-negative")

    def xi(t):
        t = np.asarray(t, dtype=float)
        w = np.sin(np.log(np.maximum(t - t0 + 1.0, 1.0)))
        return np.where(w >= 0.0, w * w, 0.0)

    return InputSignal(xi=xi, xi_sup=1.0, dxi_sup=2.0)


# ---------------------------------------------------------------------------
# Built-in families. All three satisfy the excitation assumption for
# xi(t) = sin t; parameterizations are injective on the declared ranges, so
# every equivalence set is the singleton {theta}.

def _singleton(theta: float) -> list[tuple[float, float]]:
    return [(theta, theta)]


def _make_linear(theta_range, xi_sup):
    d_theta = xi_sup
    d_xi = max(abs(theta_range[0]), abs(theta_range[1]))
    return dict(
        f=lambda xi, th: th * xi,
        equivalence=_singleton,
        lipschitz_theta=d_theta,
        lipschitz_xi=d_xi,
    )


def _sin(x):
    """sin that keeps a Python float a float: math.sin on a float, np.sin on
    anything else (same bits). +-inf gives nan, as np.sin does, where
    math.sin would raise."""
    if type(x) is not float:
        return np.sin(x)
    try:
        return math.sin(x)
    except ValueError:
        return math.nan


def _make_sine(theta_range, xi_sup):
    return dict(
        f=lambda xi, th: _sin(th * xi),
        equivalence=_singleton,
        lipschitz_theta=xi_sup,
        lipschitz_xi=max(abs(theta_range[0]), abs(theta_range[1])),
    )


def _make_quadratic_affine(theta_range, xi_sup):
    lo, hi = theta_range
    if lo < 0.5 or hi > 2.0:
        raise ValueError("quadratic-affine family is declared injective only on [0.5, 2]")
    return dict(
        f=lambda xi, th: th * th * xi + th,
        equivalence=_singleton,
        lipschitz_theta=2.0 * hi * xi_sup + 1.0,
        lipschitz_xi=hi * hi,
    )


BUILTIN_FAMILIES = {
    "linear": _make_linear,
    "sine": _make_sine,
    "quadratic-affine": _make_quadratic_affine,
}


def builtin_class(name: str, theta_range=(0.5, 2.0), xi_sup: float = 1.0) -> SignalClass:
    """Construct one of the shipped families by name."""
    if name not in BUILTIN_FAMILIES:
        raise KeyError(f"unknown family {name!r}; available: {sorted(BUILTIN_FAMILIES)}")
    spec = BUILTIN_FAMILIES[name](tuple(theta_range), xi_sup)
    return SignalClass(name=name, theta_range=tuple(theta_range), **spec)


def sin_input() -> InputSignal:
    return InputSignal(xi=_sin, xi_sup=1.0, dxi_sup=1.0)
