"""Fixed-step integration of the coupled measurement + classifier-bank system.

One trajectory holds the measurement s and, per class i, the subsystem state
(shat_i, x_i, y_i) together with the instantaneous read-outs (theta_hat_i,
hf_i). Everything is deterministic given the seed; records are immutable.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .plant import PlantSpec, make_noise, plant_rhs
from .prototype import PrototypeConfig, init_state, prototype_rhs, theta_hat
from .rnn import SigmoidNetwork
from .signals import InputSignal, SignalClass

__all__ = ["Trajectory", "rk4_step", "integrate_system"]


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    columns: list[str]
    readouts: Optional[np.ndarray] = None
    readout_columns: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths differ")
        if self.readouts is not None and len(self.readouts) != len(self.times):
            raise ValueError("readouts length differs from times")
        if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite entries")
        steps = np.diff(self.times)
        if len(steps) and (np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]):
            raise ValueError("times must increase with a constant step")

    @property
    def n_classes(self) -> int:
        return (self.states.shape[1] - 1) // 3

    def column(self, name: str) -> np.ndarray:
        if name in self.columns:
            return self.states[:, self.columns.index(name)]
        if name in self.readout_columns:
            return self.readouts[:, self.readout_columns.index(name)]
        raise KeyError(name)

    def csv_header(self) -> str:
        cols = ["t", "s"]
        for i in range(1, self.n_classes + 1):
            cols += [f"shat_{i}", f"x_{i}", f"y_{i}", f"theta_hat_{i}", f"hf_{i}"]
        return ",".join(cols)

    def to_csv(self, path=None) -> Optional[str]:
        """Serialize with 17 significant digits (round-trip exact for float64).

        With a path (a file name or an open text file) the rows are written
        there and None is returned; without one the text is returned.
        """
        cols = [self.times[:, None], self.states[:, :1]]
        for i in range(self.n_classes):
            cols += [self.states[:, 1 + 3 * i : 4 + 3 * i], self.readouts[:, 2 * i : 2 * i + 2]]
        out = io.StringIO() if path is None else path
        np.savetxt(out, np.hstack(cols), fmt="%.17g", delimiter=",",
                   header=self.csv_header(), comments="")
        return out.getvalue() if path is None else None


def rk4_step(
    rhs: Callable[[list, float], Sequence[float]],
    state: Sequence[float],
    t: float,
    dt: float,
) -> list:
    """Classical 4-stage Runge-Kutta update on a list of floats.

    List in, list out: takes the state as a sequence, hands rhs every stage
    state as a list, and returns the new state as a list. rhs returns a
    sequence of the same length. With h = dt/2 and w = dt/6 each element is
    x + h*k at the stages and x + w*(k1 + 2*k2 + 2*k3 + k4) at the end, the
    association order of the array expressions, so the bits equal those of
    numpy's elementwise RK4. Raises FloatingPointError on an inf or nan.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = 0.5 * dt
    w = dt / 6.0
    x = list(state)
    a = rhs(x, t)
    b = rhs([v + h * k for v, k in zip(x, a)], t + h)
    c = rhs([v + h * k for v, k in zip(x, b)], t + h)
    d = rhs([v + dt * k for v, k in zip(x, c)], t + dt)
    out = [v + w * (p + 2.0 * q + 2.0 * r + z) for v, p, q, r, z in zip(x, a, b, c, d)]
    if not all(map(math.isfinite, out)):
        raise FloatingPointError(f"integration diverged at t={t}")
    return out


def _bank_entry(entry):
    """Normalize a bank element to (kind, class or None, config or network)."""
    if isinstance(entry, tuple) and len(entry) == 2:
        clazz, config = entry
        if not isinstance(clazz, SignalClass) or not isinstance(config, PrototypeConfig):
            raise TypeError("prototype bank entries must be (SignalClass, PrototypeConfig)")
        return ("prototype", clazz, config)
    if isinstance(entry, SigmoidNetwork):
        return ("network", None, entry)
    raise TypeError(f"unsupported bank entry {type(entry).__name__}")


def _network_stacks(entries) -> list[tuple[SigmoidNetwork, np.ndarray]]:
    """Stack the bank's networks by (N, sigmoid), each with the state
    columns of its members in stack order."""
    groups: dict[tuple, list[int]] = {}
    for i, (kind, _, obj) in enumerate(entries):
        if kind == "network":
            groups.setdefault((obj.N, obj.sigmoid), []).append(i)
    return [(SigmoidNetwork.stack([entries[i][2] for i in idx]),
             np.array([1 + 3 * i + j for i in idx for j in range(3)]))
            for idx in groups.values()]


def integrate_system(
    spec: PlantSpec,
    clazz: SignalClass,
    theta: float,
    bank: Sequence,
    inp: InputSignal,
    t0: float = 0.0,
    horizon: float = 10.0,
    dt: float = 1e-3,
    seed: int = 0,
    record_every: int = 10,
    s0: Optional[float] = None,
    init_states: Optional[Sequence[np.ndarray]] = None,
    meta: Optional[dict] = None,
) -> Trajectory:
    """Integrate the measurement jointly with a bank of classifier subsystems.

    Each bank entry is either (SignalClass, PrototypeConfig) or a fitted
    SigmoidNetwork. An empty bank integrates the plant alone. Networks that
    share N and the sigmoid are stacked into one network, whose rhs maps all
    of their states at once in every RK4 stage.
    """
    if dt <= 0 or horizon < 0 or record_every < 1:
        raise ValueError("need dt > 0, horizon >= 0 and record_every >= 1")
    entries = [_bank_entry(e) for e in bank]
    m = len(entries)
    if s0 is None:
        s0 = 0.5 * (spec.s0_range[0] + spec.s0_range[1])
    lo, hi = spec.s0_range
    if not lo <= s0 <= hi:
        raise ValueError(f"s0={s0} outside the declared initial interval {spec.s0_range}")

    state = np.empty(1 + 3 * m)
    state[0] = s0
    for i, (kind, c, obj) in enumerate(entries):
        if init_states is not None:
            state[1 + 3 * i : 4 + 3 * i] = np.asarray(init_states[i], dtype=float)
        elif kind == "prototype":
            st = init_state(obj, shat0=s0)
            state[1 + 3 * i : 4 + 3 * i] = st.as_array()
        else:
            state[1 + 3 * i : 4 + 3 * i] = [s0, np.cos(obj.nu_x), np.sin(obj.nu_x)]
    prototypes = [(i, c, obj) for i, (kind, c, obj) in enumerate(entries) if kind == "prototype"]
    stacks = _network_stacks(entries)
    # rhs lists the derivatives prototypes first, then stack by stack; order
    # puts them back into bank order when that differs.
    cols = [0] + [1 + 3 * i + j for i, _, _ in prototypes for j in range(3)]
    for _, sel in stacks:
        cols += sel.tolist()
    order = None if cols == list(range(1 + 3 * m)) else np.argsort(cols).tolist()

    n = int(round(horizon / dt))
    eta = make_noise(spec, max(n, 1), t0, dt, seed)
    eta_now = 0.0

    def rhs(q: list, t: float) -> list:
        # Everything stays a Python float: an np.float64 that slipped into
        # the state would make every later operation a slow numpy scalar op.
        # The sine family's f returns np.float64, hence the float() on the
        # first prototype derivative. Network stacks take their states as
        # one array.
        xi_val = float(inp.xi(t))
        s = q[0]
        dq = [plant_rhs(s, xi_val, clazz, theta, spec, eta_now)]
        for i, c, config in prototypes:
            ds, dx, dy = prototype_rhs(q[1 + 3 * i : 4 + 3 * i], s, xi_val, c, config, spec.phi)
            dq += (float(ds), dx, dy)
        if stacks:
            qa = np.array(q)
            for net, sel in stacks:
                dq += net.rhs(xi_val, s, qa[sel]).ravel().tolist()
        return dq if order is None else [dq[j] for j in order]

    times = [t0]
    states = np.empty((n // record_every + 1, 1 + 3 * m))
    states[0] = state
    state = state.tolist()
    # A diverging run overflows on its way to inf; rk4_step reports that as
    # FloatingPointError, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            t = t0 + k * dt
            eta_now = float(eta[k])
            state = rk4_step(rhs, state, t, dt)
            if (k + 1) % record_every == 0:
                times.append(t0 + (k + 1) * dt)
                states[(k + 1) // record_every] = state

    # Domain escape: every recorded row after the first, with xi at the step
    # end t0 + k dt + dt, checked against every stack in one call each.
    escape_t = None
    if stacks:
        rec = states[1:]
        k = np.arange(1, len(rec) + 1) * record_every - 1
        xi_rec = inp.xi(t0 + k * dt + dt)[:, None]
        inside = np.ones(len(rec), dtype=bool)
        for net, sel in stacks:
            q = rec[:, sel].reshape(len(rec), -1, 3)
            inside &= net.in_domain(xi_rec, rec[:, :1], q).all(axis=1)
        if not inside.all():
            escape_t = times[1 + int(np.argmin(inside))]

    a = np.array([obj.a for _, _, obj in entries])
    b = np.array([obj.b for _, _, obj in entries])
    readouts = np.empty((len(states), 2 * m))
    readouts[:, 0::2] = theta_hat(states[:, 2::3], a, b)
    readouts[:, 1::2] = states[:, :1] - states[:, 1::3]

    columns = ["s"]
    rcolumns = []
    for i in range(1, m + 1):
        columns += [f"shat_{i}", f"x_{i}", f"y_{i}"]
        rcolumns += [f"theta_hat_{i}", f"hf_{i}"]
    info = {"dt": dt, "seed": seed, "record_every": record_every, "t0": t0}
    if meta:
        info.update(meta)
    if escape_t is not None:
        info["domain_escape_t"] = escape_t
    return Trajectory(
        times=np.array(times),
        states=states,
        columns=columns,
        readouts=readouts,
        readout_columns=rcolumns,
        meta=info,
    )
