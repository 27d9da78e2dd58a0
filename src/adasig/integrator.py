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
from .prototype import PrototypeConfig, init_state, prototype_rhs, subsystem_constants, theta_hat
from .rnn import SigmoidNetwork
from .signals import InputSignal, SignalClass

__all__ = ["Trajectory", "write_csv", "rk4_step", "integrate_system"]

# Rows per write_csv block; at 7 columns a block is about 0.2 MB of text.
CSV_BLOCK_ROWS = 1024


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
        return write_csv(path, self.csv_header(), cols)


def write_csv(path, header: str, columns: Sequence[np.ndarray]) -> Optional[str]:
    """Write (n, k) column blocks side by side as CSV rows at 17 significant
    digits, after one header line: the bytes of np.savetxt(fmt="%.17g",
    delimiter=",", header=header, comments="") on the joined table.

    path is a file name, an open text file, or None to return the text. The
    rows go out CSV_BLOCK_ROWS at a time, each block sliced from the columns
    and formatted by one % operation on Python floats.
    """
    row = ",".join(["%.17g"] * sum(c.shape[1] for c in columns)) + "\n"

    def write(fh):
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = np.concatenate([c[i : i + CSV_BLOCK_ROWS] for c in columns], axis=1)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))

    if path is None:
        out = io.StringIO()
        write(out)
        return out.getvalue()
    if hasattr(path, "write"):
        write(path)
    else:
        with open(path, "w") as fh:
            write(fh)
    return None


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
) -> Trajectory:
    """Integrate the measurement jointly with a bank of classifier subsystems.

    The bank is all prototypes, (SignalClass, PrototypeConfig) pairs, or all
    fitted SigmoidNetworks, which are stacked into one network whose rhs maps
    every network's state in each RK4 stage. An empty bank integrates the
    plant alone.
    """
    if dt <= 0 or horizon < 0 or record_every < 1:
        raise ValueError("need dt > 0, horizon >= 0 and record_every >= 1")
    m = len(bank)
    net, prototypes = None, []
    if m and all(isinstance(e, SigmoidNetwork) for e in bank):
        net, subsystems = SigmoidNetwork.stack(bank), bank
    elif all(isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], SignalClass)
             and isinstance(e[1], PrototypeConfig) for e in bank):
        subsystems = [config for _, config in bank]
        prototypes = [subsystem_constants(c, config, 1 + 3 * i)
                      for i, (c, config) in enumerate(bank)]
    else:
        raise TypeError("a bank is all (SignalClass, PrototypeConfig) pairs "
                        "or all SigmoidNetworks")
    if s0 is None:
        s0 = 0.5 * (spec.s0_range[0] + spec.s0_range[1])
    lo, hi = spec.s0_range
    if not lo <= s0 <= hi:
        raise ValueError(f"s0={s0} outside the declared initial interval {spec.s0_range}")

    state = np.empty(1 + 3 * m)
    state[0] = s0
    for i, obj in enumerate(subsystems):
        init = init_state(obj, s0) if init_states is None else init_states[i]
        state[1 + 3 * i : 4 + 3 * i] = init

    n = int(round(horizon / dt))
    eta = make_noise(spec, max(n, 1), seed)
    eta_now = 0.0

    phi = spec.phi

    def rhs(q: list, t: float) -> list:
        # Everything stays a Python float: an np.float64 that slipped into
        # the state would make every later operation a slow numpy scalar op.
        # The bank is one prototype_rhs call on the whole stage state, or one
        # rhs call of the stacked network on its 3m states.
        xi_val = float(inp.xi(t))
        s = q[0]
        dq = [plant_rhs(s, xi_val, clazz, theta, spec, eta_now)]
        if prototypes:
            dq += prototype_rhs(q, s, xi_val, prototypes, phi)
        elif net is not None:
            dq += net.rhs(xi_val, s, q[1:]).ravel().tolist()
        return dq

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

    a = np.array([obj.a for obj in subsystems])
    b = np.array([obj.b for obj in subsystems])
    readouts = np.empty((len(states), 2 * m))
    readouts[:, 0::2] = theta_hat(states[:, 2::3], a, b)
    readouts[:, 1::2] = states[:, :1] - states[:, 1::3]

    columns = ["s"]
    rcolumns = []
    for i in range(1, m + 1):
        columns += [f"shat_{i}", f"x_{i}", f"y_{i}"]
        rcolumns += [f"theta_hat_{i}", f"hf_{i}"]
    info = {"dt": dt, "seed": seed, "record_every": record_every, "t0": t0}
    if net is not None:
        # Domain escape: every recorded row after the first, with xi at the
        # step end t0 + k dt + dt, in one check that flags each network.
        rec = states[1:]
        k = np.arange(1, len(rec) + 1) * record_every - 1
        xi_rec = inp.xi(t0 + k * dt + dt)[:, None]
        inside = net.in_domain(xi_rec, rec[:, :1], rec[:, 1:].reshape(len(rec), m, 3))
        if not inside.all():
            info["domain_escape_t"] = [None if col.all() else times[1 + int(col.argmin())]
                                       for col in inside.T]
    return Trajectory(
        times=np.array(times),
        states=states,
        columns=columns,
        readouts=readouts,
        readout_columns=rcolumns,
        meta=info,
    )
