"""Fixed-step integration of the coupled measurement + classifier-bank system.

One trajectory holds the measurement s and, per class i, the subsystem state
(shat_i, x_i, y_i) together with the instantaneous read-outs (theta_hat_i,
hf_i). Everything is deterministic given the seed; records are immutable.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .plant import PlantSpec, make_noise
from .prototype import PrototypeConfig, bank_kernel, prototype_rhs, theta_hat
from .rnn import SigmoidNetwork
from .signals import InputSignal, SignalClass

# Rows per write_csv block; at 7 columns a block is about 0.2 MB of text.
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Trajectory:
    """A recorded run of the measurement and an m-class bank.

    states is (rows, 1 + 3m): s, then (shat_i, x_i, y_i) for each class i;
    theta_hat and hf are the (rows, m) read-outs. Column names exist only
    in the CSV header.
    """
    times: np.ndarray
    states: np.ndarray
    theta_hat: np.ndarray
    hf: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not len(self.times) == len(self.states) == len(self.theta_hat) == len(self.hf):
            raise ValueError("times, states, theta_hat and hf lengths differ")
        if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite entries")
        # A grid t0 + j*dt is exact to an ulp or two of its largest |t|, which
        # is max(-t[0], t[-1]) once the times increase.
        steps = np.diff(self.times)
        if len(steps) and (np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]
                           + 8 * np.spacing(max(-self.times[0], self.times[-1]))):
            raise ValueError("times must increase with a constant step")

    @property
    def n_classes(self) -> int:
        return (self.states.shape[1] - 1) // 3

    def subsystem(self, i: int) -> np.ndarray:
        """Class i's (rows, 3) view of (shat, x, y), 0-based."""
        return self.states[:, 1 + 3 * i : 4 + 3 * i]

    def csv_header(self) -> str:
        cols = ["t", "s"]
        for i in range(1, self.n_classes + 1):
            cols += [f"shat_{i}", f"x_{i}", f"y_{i}", f"theta_hat_{i}", f"hf_{i}"]
        return ",".join(cols)

    def to_csv(self, fh) -> None:
        """Write to the open text file fh with 17 significant digits
        (round-trip exact for float64)."""
        cols = [self.times[:, None], self.states[:, :1]]
        for i in range(self.n_classes):
            cols += [self.subsystem(i), self.theta_hat[:, i : i + 1], self.hf[:, i : i + 1]]
        write_csv(fh, self.csv_header(), cols)


def write_csv(fh, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write (n, k) column blocks side by side as CSV rows at 17 significant
    digits, after one header line, to the open text file fh: the bytes of
    np.savetxt(fmt="%.17g", delimiter=",", header=header, comments="") on
    the joined table.

    The rows go out CSV_BLOCK_ROWS at a time, each block sliced from the
    columns and formatted by one % operation on Python floats.
    """
    row = ",".join(["%.17g"] * sum(c.shape[1] for c in columns)) + "\n"
    fh.write(header + "\n")
    for i in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.concatenate([c[i : i + CSV_BLOCK_ROWS] for c in columns], axis=1)
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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
    numpy's elementwise RK4. Raises ValueError for dt <= 0 and
    FloatingPointError on an inf or nan. The step runs rk4_stepper(n), the
    straight-line code for a state of length n.
    """
    return rk4_stepper(len(state))(rhs, state, t, dt)


@functools.cache
def rk4_stepper(n: int) -> Callable:
    """rk4_step for states of length n, compiled from straight-line source.

    The state is unpacked into locals x0..x{n-1}; each stage hands rhs a list
    display of them and unpacks its result into locals of its own, so no
    list is built or zipped per element. The source depends on n alone and
    is the function's __doc__.
    """
    def row(expr):
        return ", ".join(expr.format(i=i) for i in range(n))

    src = "\n    ".join([
        "def step(rhs, state, t, dt):",
        "if dt <= 0:",
        "    raise ValueError('dt must be positive')",
        f"[{row('x{i}')}] = state",
        "h = 0.5 * dt",
        f"[{row('a{i}')}] = rhs([{row('x{i}')}], t)",
        f"[{row('b{i}')}] = rhs([{row('x{i} + h*a{i}')}], t + h)",
        f"[{row('c{i}')}] = rhs([{row('x{i} + h*b{i}')}], t + h)",
        f"[{row('d{i}')}] = rhs([{row('x{i} + dt*c{i}')}], t + dt)",
        "w = dt / 6.0",
        *(f"y{i} = x{i} + w*(a{i} + 2.0*b{i} + 2.0*c{i} + d{i})" for i in range(n)),
        f"if not ({' and '.join(f'isfinite(y{i})' for i in range(n)) or 'True'}):",
        "    raise FloatingPointError(f'integration diverged at t={t}')",
        f"return [{row('y{i}')}]",
    ]) + "\n"
    namespace = {"isfinite": math.isfinite}
    exec(compile(src, f"<rk4_stepper({n})>", "exec"), namespace)
    step = namespace["step"]
    step.__doc__ = src
    return step


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
    net = kernel = None
    if m and all(isinstance(e, SigmoidNetwork) for e in bank):
        net, subsystems = SigmoidNetwork.stack(bank), bank
    elif all(isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], SignalClass)
             and isinstance(e[1], PrototypeConfig) for e in bank):
        subsystems = [config for _, config in bank]
        if m:
            kernel = bank_kernel(bank, spec.phi_min)
    else:
        raise TypeError("a bank is all (SignalClass, PrototypeConfig) pairs "
                        "or all SigmoidNetworks")
    if s0 is None:
        s0 = 0.5 * (spec.s0_range[0] + spec.s0_range[1])
    lo, hi = spec.s0_range
    if not lo <= s0 <= hi:
        raise ValueError(f"s0={s0} outside the declared initial interval {spec.s0_range}")

    # Each subsystem starts with its filter copy at s0 and its rotator on the
    # unit circle at phase nu_x. The winding budget k' is an accounting device
    # for the phase integral, not a property of the start point: all windings
    # share the same (x, y).
    state = [float(s0)]
    for obj in subsystems:
        state += [state[0], math.cos(obj.nu_x), math.sin(obj.nu_x)]

    n = int(round(horizon / dt))
    eta = make_noise(spec, max(n, 1), seed)
    eta_now = 0.0

    xi, f, phi_min = inp.xi, clazz.f, spec.phi_min

    def rhs(q: list, t: float) -> list:
        # Everything stays a Python float: an np.float64 that slipped into
        # the state would make every later operation a slow numpy scalar op.
        # The plant -phi_min * s + f(xi, theta) + eta is written out. The bank
        # is one prototype_rhs call on the whole stage state, with the kernel
        # compiled for this bank, or one rhs call of the stacked network on
        # its 3m states. prototype_rhs and rk4_step are read from the module
        # on every call, where a tracer may wrap them.
        xi_val = float(xi(t))
        s = q[0]
        ds = -phi_min * s + float(f(xi_val, theta)) + eta_now
        if kernel is not None:
            return [ds, *prototype_rhs(q, s, xi_val, kernel)]
        if net is not None:
            return [ds, *net.rhs(xi_val, s, q[1:]).tolist()]
        return [ds]

    states = np.empty((n // record_every + 1, 1 + 3 * m))
    states[0] = state
    # A diverging run overflows on its way to inf; rk4_step reports that as
    # FloatingPointError, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            t = t0 + k * dt
            eta_now = float(eta[k])
            state = rk4_step(rhs, state, t, dt)
            if (k + 1) % record_every == 0:
                states[(k + 1) // record_every] = state

    # Row j is at t0 + (j * record_every) * dt: the integer times dt, then t0.
    times = t0 + np.arange(0, n + 1, record_every) * dt
    a = np.array([obj.a for obj in subsystems])
    b = np.array([obj.b for obj in subsystems])
    return Trajectory(
        times=times,
        states=states,
        theta_hat=theta_hat(states[:, 2::3], a, b),
        hf=states[:, :1] - states[:, 1::3],
        meta={"dt": dt, "record_every": record_every},
    )
