"""Metric names, units and how each is computed from operations and spans.

BENCHMARK.json lists the same names; the benchmark's tests check that the
two agree.
"""
from __future__ import annotations

import resource
import statistics

END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "classify_s": "s",
    "class_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.load_s": "s",
    "cli.run_tune_s": "s",
    "plant.make_noise_s": "s",
    "signals.xi_calls_per_step": "count",
    "signals.f_calls_per_step": "count",
    "prototype.rhs_calls": "count",
    "prototype.rhs_self_us": "us",
    "integrator.steps": "count",
    "integrator.step_self_us": "us",
    "integrator.integrate_s": "s",
    "integrator.rows_recorded": "count",
    "integrator.csv_bytes": "bytes",
    "analysis.convergence_report_s": "s",
    "classify.decide_s": "s",
    "classify.useful_step_frac": "fraction",
    "rnn.target_rows": "count",
    "rnn.net_rhs_calls": "count",
    "trace.overhead_ratio": "ratio",
}

# Layer times that only one workload runs. On the other workloads they would
# read 0 on every run, so they are printed and kept in the detail record of
# that workload's traced runs instead of being listed in BENCHMARK.json.
WORKLOAD_LAYERS = {
    "report-sweep": {},
    "rnn-fit": {
        "cli.fit_bank_s": "s",
        "rnn.sample_rhs_s": "s",
        "rnn.fit_network_s": "s",
        "rnn.lipschitz_s": "s",
        "rnn.net_rhs_self_us": "us",
        "rnn.divergence_check_s": "s",
    },
    "dense-record": {"integrator.to_csv_s": "s"},
}


def end_to_end(ops, setup_samples) -> dict:
    """Medians over the operations of one untraced run."""
    classify = [c for op in ops for c in op.classify_s]
    values = {
        "setup_s": statistics.median(setup_samples),
        "command_s": statistics.median(op.command_s for op in ops),
        "classify_s": statistics.median(classify),
        "class_steps_per_s": statistics.median(op.class_steps / op.sim_s for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _per_call(tracer, name: str) -> float:
    calls = tracer.calls(name)
    return tracer.total_s(name) / calls if calls else 0.0


def _self_us(tracer, name: str) -> float:
    calls = tracer.calls(name)
    return 1e6 * tracer.self_s(name) / calls if calls else 0.0


def layer_counts(tracer, op) -> dict:
    """Exact counts of one traced operation."""
    integrating = "integrator.integrate_system"
    return {
        "prototype.rhs_calls": tracer.calls("prototype.prototype_rhs"),
        "rnn.net_rhs_calls": tracer.calls("rnn.SigmoidNetwork.rhs"),
        "rnn.target_rows": sum(e[3] for e in tracer.events_named("rnn.sample_rhs")),
        "integrator.steps": tracer.calls("integrator.rk4_step"),
        "integrator.rows_recorded": op.rows,
        "integrator.csv_bytes": op.csv_bytes,
        "signals.xi_calls": tracer.counts[(integrating, "signals.xi")],
        "signals.f_calls": tracer.counts[(integrating, "signals.f")],
    }


def layers(tracer, op, ratio: float = 1.0) -> dict:
    """Per-layer values of one traced operation (overhead filled in later).

    Times are scaled by ratio, the operation's reference seconds per wall
    second (see pace.py), so that they read in reference seconds like the
    end-to-end times.
    """
    counts = layer_counts(tracer, op)
    steps = counts["integrator.steps"]
    check_sims = sum(e[2] - e[1] for e in tracer.events_named("cli.run_simulate")
                     if e[3][0] is not None)
    values = {
        "config.load_s": _per_call(tracer, "config.load_config"),
        "cli.run_tune_s": _per_call(tracer, "cli.run_tune"),
        "cli.fit_bank_s": tracer.total_s("cli.fit_bank"),
        "plant.make_noise_s": _per_call(tracer, "plant.make_noise"),
        "signals.xi_calls_per_step": counts["signals.xi_calls"] / steps,
        "signals.f_calls_per_step": counts["signals.f_calls"] / steps,
        "prototype.rhs_calls": counts["prototype.rhs_calls"],
        "prototype.rhs_self_us": _self_us(tracer, "prototype.prototype_rhs"),
        "integrator.steps": steps,
        "integrator.step_self_us": _self_us(tracer, "integrator.rk4_step"),
        "integrator.integrate_s": tracer.total_s("integrator.integrate_system"),
        "integrator.rows_recorded": counts["integrator.rows_recorded"],
        "integrator.to_csv_s": tracer.total_s("integrator.Trajectory.to_csv"),
        "integrator.csv_bytes": counts["integrator.csv_bytes"],
        "analysis.convergence_report_s": tracer.total_s("analysis.convergence_report"),
        "classify.decide_s": _per_call(tracer, "classify.decide"),
        "classify.useful_step_frac": op.useful_steps / op.classify_steps,
        "rnn.sample_rhs_s": tracer.total_s("rnn.sample_rhs"),
        "rnn.target_rows": counts["rnn.target_rows"],
        "rnn.fit_network_s": tracer.total_s("rnn.fit_network"),
        "rnn.lipschitz_s": tracer.total_s("rnn.estimate_rhs_lipschitz"),
        "rnn.net_rhs_calls": counts["rnn.net_rhs_calls"],
        "rnn.net_rhs_self_us": _self_us(tracer, "rnn.SigmoidNetwork.rhs"),
        # The whole Gronwall check of fit-rnn: both short integrations, the
        # Lipschitz estimates and the envelope comparison.
        "rnn.divergence_check_s": check_sims + tracer.total_s("rnn.estimate_rhs_lipschitz")
        + tracer.total_s("rnn.divergence_check"),
    }
    units = {k: u for own in WORKLOAD_LAYERS.values() for k, u in own.items()}
    units.update(PER_LAYER)
    return {k: v * ratio if units[k] in ("s", "us") else v for k, v in values.items()}


def per_layer(traced, overhead_ratio: float, workload: str) -> tuple[dict, dict]:
    """Medians over the traced operations of one run: the BENCHMARK.json
    metrics, and the layer times only this workload runs."""
    def medians(units):
        return {k: {"value": statistics.median(layer[k] for layer in traced), "unit": u}
                for k, u in units.items() if k != "trace.overhead_ratio"}

    listed = medians(PER_LAYER)
    listed["trace.overhead_ratio"] = {"value": overhead_ratio,
                                      "unit": PER_LAYER["trace.overhead_ratio"]}
    return listed, medians(WORKLOAD_LAYERS[workload])
