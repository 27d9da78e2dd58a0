"""Machine-speed calibration: wall times scaled to a fixed reference speed.

On a shared machine the same code runs up to twice as slow for stretches
of seconds to minutes, and CPU time slows with it, so raw wall times of
identical runs spread far wider than any useful regression bound. The
benchmark therefore times a fixed calibration kernel, independent of
adasig, while the program runs, and reports every end-to-end time in
*reference seconds*: wall time scaled to the speed at which the kernel
takes ``KERNEL_REF_S``.

* `Pace` samples the kernel from a ``SIGALRM`` handler every ``period``
  seconds of wall time. Each sample gives the speed ratio
  ``KERNEL_REF_S / kernel time`` at that moment; the ratio is held from the
  previous sample up to this one. An interval of wall time ``[a, b]`` then
  takes ``adjusted(a, b)`` reference seconds, the integral of the ratio
  over the interval. The handler runs between bytecodes of the main
  thread, so a long call into C delays the next sample and the sample
  after it covers the whole call.
* `window_ratio` runs the kernel back to back for a short window; the
  set-up probe uses it right after the set-up it timed.

The kernel mixes the two kinds of work adasig does per RK4 step: small
numpy arrays driven from Python, and pure-Python arithmetic and
containers. It tracks the program's slow-downs
closely but not exactly: in runs where the machine ran at half speed the
adjusted times read about 5% lower than in quiet runs. Raw wall times stay
in the detail record.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

# Kernel time at the reference speed, about what the kernel takes on the
# 2-CPU machine the bounds were set on when that machine is quiet.
KERNEL_REF_S = 150e-6
PERIOD_S = 0.02

_X0 = np.array([0.3, -0.2, 0.1])


def _rhs(x: np.ndarray, t: float) -> np.ndarray:
    return np.array([x[1], -0.5 * x[0], math.sin(t) - x[2]])


def kernel() -> float:
    """Work of the two kinds adasig does per RK4 step: six RK4 steps of a
    fixed 3-state system on small numpy arrays, with a Python rhs and a
    finiteness check, then a pure-Python loop of float, dict and list
    operations. The two react differently to a busy machine; the program
    does both."""
    x, t, dt = _X0, 0.0, 0.01
    for _ in range(6):
        k1 = _rhs(x, t)
        k2 = _rhs(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = _rhs(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = _rhs(x + dt * k3, t + dt)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("calibration kernel diverged")
        t += dt
    s, y, seen, rows = 0.0, float(x[0]), {}, []
    for i in range(300):
        y = y * 0.999 + 0.001 * i
        s += y if i & 1 else -y
        seen[i & 15] = s
        if i % 30 == 0:
            rows.append((i, y, s))
    return s + len(rows) + len(seen)


def _time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def window_ratio(seconds: float) -> float:
    """Speed ratio over a window of back-to-back kernels: work over time."""
    n, spent = 0, 0.0
    while n == 0 or spent < seconds:
        spent += _time_kernel()
        n += 1
    return n * KERNEL_REF_S / spent


class Pace:
    """Samples the kernel on a wall-clock timer while it is entered."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.times: list[float] = []  # when each sample was taken
        self.ratios: list[float] = []  # KERNEL_REF_S / kernel time
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that lands while the kernel runs
            return
        self._busy = True
        try:
            t = time.perf_counter()
            self.ratios.append(KERNEL_REF_S / _time_kernel())
            self.times.append(t)
        finally:
            self._busy = False

    def __enter__(self):
        _time_kernel()  # warm the kernel before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def adjusted(self, a: float, b: float) -> float:
        """Reference seconds of the wall-time interval [a, b]."""
        if not self.ratios:
            return b - a
        ts, rs = self.times, self.ratios
        # Sample i covers (ts[i-1], ts[i]]; the first reaches back and the
        # last forward without end.
        i = bisect.bisect_left(ts, a)
        total, lo = 0.0, a
        while lo < b:
            hi = b if i >= len(ts) else min(ts[i], b)
            total += (hi - lo) * rs[min(i, len(rs) - 1)]
            lo, i = hi, i + 1
        return total

    def ratio(self, a: float, b: float) -> float:
        """Mean speed ratio over [a, b]: reference seconds per wall second."""
        return self.adjusted(a, b) / (b - a) if b > a else 1.0
