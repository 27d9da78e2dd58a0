"""Timing and counting hooks installed around adasig's public functions.

The hooks live in the benchmark; no file of the package changes. A hook
replaces a function in every loaded ``adasig`` module that holds it, so a
name imported with ``from .prototype import prototype_rhs`` is replaced
too, and `Tracer.restore` puts every original back.

Two kinds of record are kept:

* span statistics keyed by ``(parent span, span)``: calls, total seconds and
  the seconds covered by child spans, so self time is ``total - child``.
  Aggregating instead of storing each span keeps memory flat: one report
  command makes about two million ``prototype_rhs`` calls.
* events for the few coarse calls whose results the benchmark inspects
  (``run_simulate``, ``run_decide``, ...): name, start, end and a value the
  caller picks from the arguments and the result.

Counters (calls of ``xi`` and ``f``) are keyed by the innermost open scope
span, so calls made while integrating can be told from calls made while
sampling network targets.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional


def _adasig_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "adasig" or n.startswith("adasig."))]


class Tracer:
    def __init__(self):
        self.events: list[tuple[str, float, float, object]] = []
        self.stats: dict[tuple[Optional[str], str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._scope: Optional[str] = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ records

    def reset(self) -> None:
        """Forget every record; installed hooks stay."""
        if self._stack:
            raise RuntimeError("reset while spans are open")
        self.events.clear()
        self.stats.clear()
        self.counts.clear()

    def calls(self, name: str) -> int:
        return sum(v[0] for (_, n), v in self.stats.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(v[1] for (_, n), v in self.stats.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(v[1] - v[2] for (_, n), v in self.stats.items() if n == name)

    def events_named(self, name: str) -> list:
        return [e for e in self.events if e[0] == name]

    # ------------------------------------------------------------ wrappers

    def span(self, name: str, fn: Callable, keep: Optional[Callable] = None,
             scope: bool = False) -> Callable:
        """Wrap fn in a timed span; keep(args, kwargs, result) adds an event."""
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            outer_scope = self._scope
            if scope:
                self._scope = name
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._scope = outer_scope
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((parent, name))
                if rec is None:
                    rec = stats[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
            if keep is not None:
                self.events.append((name, t0, t1, keep(args, kwargs, result)))
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so each call adds one to counts[(current scope, name)]."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self._scope, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def replace_function(self, original: Callable, replacement: Callable) -> None:
        """Put replacement wherever an adasig module binds original."""
        hits = 0
        for mod in _adasig_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, replacement)
                    hits += 1
        if not hits:
            raise LookupError(f"{original!r} is bound in no adasig module")

    def replace_method(self, cls: type, attr: str, replacement: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ----------------------------------------------------------------- hook sets


def _keep_simulate(args, kwargs, traj):
    return kwargs.get("horizon"), traj


def _keep_result(args, kwargs, result):
    return result


def _keep_rows(args, kwargs, dataset):
    return len(dataset.inputs)


def install_phase_hooks(tracer: Tracer) -> None:
    """Hooks on the pipeline steps the end-to-end metrics are split by.

    They run a few times per command, so they cost nothing measurable; the
    untraced pass has only these.
    """
    from adasig import analysis, cli

    for fn, name, keep in [
        (cli.run_simulate, "cli.run_simulate", _keep_simulate),
        (cli.run_decide, "cli.run_decide", _keep_result),
        (cli.fit_bank, "cli.fit_bank", _keep_result),
        (analysis.convergence_report, "analysis.convergence_report", _keep_result),
    ]:
        tracer.replace_function(fn, tracer.span(name, fn, keep=keep))


def install_layer_hooks(tracer: Tracer) -> None:
    """Spans and counters at every layer boundary the per-layer metrics use."""
    from adasig import classify, config, integrator, plant, prototype, rnn, signals, cli

    spans = [
        (config.load_config, "config.load_config", None, False),
        (cli.run_tune, "cli.run_tune", None, False),
        (plant.make_noise, "plant.make_noise", None, False),
        (integrator.integrate_system, "integrator.integrate_system", None, True),
        (integrator.rk4_step, "integrator.rk4_step", None, False),
        (prototype.prototype_rhs, "prototype.prototype_rhs", None, False),
        (classify.decide, "classify.decide", None, False),
        (rnn.sample_rhs, "rnn.sample_rhs", _keep_rows, False),
        (rnn.fit_network, "rnn.fit_network", None, False),
        (rnn.estimate_rhs_lipschitz, "rnn.estimate_rhs_lipschitz", None, False),
        (rnn.divergence_check, "rnn.divergence_check", None, False),
    ]
    for fn, name, keep, scope in spans:
        tracer.replace_function(fn, tracer.span(name, fn, keep=keep, scope=scope))
    tracer.replace_method(integrator.Trajectory, "to_csv", tracer.span(
        "integrator.Trajectory.to_csv", integrator.Trajectory.to_csv))
    tracer.replace_method(rnn.SigmoidNetwork, "rhs", tracer.span(
        "rnn.SigmoidNetwork.rhs", rnn.SigmoidNetwork.rhs))

    # Inputs and families are values held by the config, so their factories
    # are wrapped to hand out instances whose xi and f are counted.
    def counted_input(factory):
        def make(*args, **kwargs):
            inp = factory(*args, **kwargs)
            return dataclasses.replace(inp, xi=tracer.counted("signals.xi", inp.xi))
        return make

    def counted_family(factory):
        def make(*args, **kwargs):
            clazz = factory(*args, **kwargs)
            return dataclasses.replace(clazz, f=tracer.counted("signals.f", clazz.f))
        return make

    tracer.replace_function(signals.sin_input, counted_input(signals.sin_input))
    tracer.replace_function(signals.degenerate_xi, counted_input(signals.degenerate_xi))
    tracer.replace_function(signals.builtin_class, counted_family(signals.builtin_class))
