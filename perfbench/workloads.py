"""The three benchmark workloads: generated inputs, one operation, its outputs.

An operation drives one real CLI command through ``adasig.cli.main`` on a
config this module generates (``rnn-fit`` then also classifies with the
fitted networks). Its outputs are reduced to a signature that is compared
with the stored reference in ``reference.json``.

Inputs are drawn from the workload seed. The seed picks one of
``N_INPUTS`` input sets (``seed % N_INPUTS``) so that every seed has a
stored reference made at the commit that defined the benchmark.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COMMANDS = {"report-sweep": "report", "rnn-fit": "fit-rnn", "dense-record": "simulate"}
WORKLOADS = tuple(COMMANDS)
N_INPUTS = 12

# Tolerances for comparing an operation with the stored reference. Decisions,
# statuses and divergence verdicts compare exactly.
THETA_ATOL = 1e-6
STATE_ATOL = 1e-6
EPS_N_RTOL = 1e-6
SAMPLE_ROWS = 5  # trajectory rows kept in the reference, evenly spaced

_THREE_FAMILIES = [
    {"family": "linear", "theta_range": [1.3, 2.0]},
    {"family": "sine", "theta_range": [1.3, 2.0]},
    {"family": "quadratic-affine", "theta_range": [1.3, 2.0]},
]
_TUNING = {"window_T": 2.0 * math.pi, "pe_horizon": 50.0}
_BANK_PROTOTYPE = {"a": 1.1, "b": 2.2, "gamma": 0.09, "kappa": 2.0, "d": 0.5,
                   "safety": 0.5, "nu_x": 0.0}
_NOISY_PLANT = {"phi": "identity", "phi_min": 1.0, "phi_max": 1.0,
                "s0_range": [0.0, 1.0], "noise_bound": 1e-4}


def _rng(workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{index}")


def input_index(seed: int) -> int:
    return seed % N_INPUTS


def make_config(workload: str, index: int) -> dict:
    """The experiment config of one input set of a workload."""
    rng = _rng(workload, index)
    if workload == "report-sweep":
        # The paper's three-class experiment; the true class is sine. The
        # horizon stays at 900 s because decisions land at t' = 520-745 s.
        return {
            "name": f"bench_report_sweep_{index}",
            "classes": copy.deepcopy(_THREE_FAMILIES),
            "input": {"kind": "sin"},
            "plant": dict(_NOISY_PLANT),
            "true": {"class": 1, "theta": 1.3 + 0.7 * rng.random()},
            "prototype": dict(_BANK_PROTOTYPE, delta=1e-3),
            "simulation": {"t0": 0.0, "horizon": 900.0, "dt": 0.01,
                           "record_every": 10, "seed": rng.randrange(2**31),
                           "s0": 0.5},
            "decision": {"T_star": 20.0, "eps": 0.015},
            "sweep": {"count": 1},
            "tuning": dict(_TUNING),
        }
    if workload == "rnn-fit":
        return {
            "name": f"bench_rnn_fit_{index}",
            "classes": copy.deepcopy(_THREE_FAMILIES),
            "input": {"kind": "sin"},
            "plant": dict(_NOISY_PLANT),
            "true": {"class": 0, "theta": 1.6},
            "prototype": dict(_BANK_PROTOTYPE, delta=0.5),
            "simulation": {"t0": 0.0, "horizon": 300.0, "dt": 0.01,
                           "record_every": 10, "seed": rng.randrange(2**31),
                           "s0": 0.5},
            "decision": {"T_star": 4.0, "eps": 0.18},
            "rnn": {"N": 400, "ridge": 1e-10, "n_train": 40000,
                    "sigmoid": "tanh", "check_horizon": 2.0},
            "tuning": dict(_TUNING),
        }
    if workload == "dense-record":
        # One class and every step recorded: fixed per-step, recording and
        # serialization costs dominate.
        return {
            "name": f"bench_dense_record_{index}",
            "classes": [{"family": "linear", "theta_range": [1.3, 2.0]}],
            "input": {"kind": "sin"},
            "plant": {"phi": "identity", "phi_min": 1.0, "phi_max": 1.0,
                      "s0_range": [0.0, 1.0], "noise_bound": 0.0},
            "true": {"class": 0, "theta": 1.3 + 0.7 * rng.random()},
            "prototype": {"a": 1.1, "b": 2.2, "delta": 0.0, "kappa": 2.0,
                          "d": 0.5, "safety": 0.5, "nu_x": 0.0, "k_prime": 1},
            "simulation": {"t0": 0.0, "horizon": 400.0, "dt": 0.01,
                           "record_every": 1, "seed": rng.randrange(2**31),
                           "s0": rng.random()},
            "decision": {"T_star": 20.0, "eps": 0.01, "theta_bound": 0.05},
            "tuning": {"window_T": 2.0 * math.pi, "pe_horizon": 50.0},
        }
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ one op


@dataclass
class Op:
    """What one operation did, read from its artifacts and phase events."""

    exit_code: int
    command_s: float
    wall_s: float  # raw wall time of the command
    classify_s: list  # seconds per classification
    sim_s: float  # seconds inside run_simulate
    class_steps: int  # RK4 steps x classes integrated
    steps: int
    rows: int
    csv_bytes: int
    useful_steps: int  # steps up to t' + T_star, over classifications
    classify_steps: int
    fit_s: float = 0.0
    signature: dict = field(default_factory=dict)

    def counts(self) -> dict:
        return {"integrator.steps": self.steps,
                "integrator.rows_recorded": self.rows,
                "integrator.csv_bytes": self.csv_bytes}


def _traj_signature(traj) -> dict:
    idx = np.unique(np.linspace(0, len(traj.times) - 1, SAMPLE_ROWS).round().astype(int))
    states = np.ascontiguousarray(traj.states, dtype="<f8")
    return {
        "hash": hashlib.sha256(states.tobytes()).hexdigest()[:16],
        "rows": int(len(traj.times)),
        "classes": int(traj.n_classes),
        "samples": traj.states[idx].tolist(),
    }


def _decision_signature(d: dict) -> dict:
    return {"decided": d["decided"], "status": d["status"],
            "theta_estimate": d["theta_estimate"]}


def run_op(workload: str, config_path: Path, out_dir: Path, tracer, pace=None) -> Op:
    """Run one operation; tracer must carry the phase hooks.

    With a running `pace.Pace`, every time of the operation is in reference
    seconds and ``wall_s`` keeps the command's raw wall time.
    """
    from adasig import analysis, cli
    from adasig.config import load_config
    from adasig.rnn import SigmoidNetwork

    shutil.rmtree(out_dir, ignore_errors=True)
    tracer.reset()
    argv = [COMMANDS[workload], "--config", str(config_path), "--out", str(out_dir)]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    t1 = time.perf_counter()

    sig: dict = {}
    if workload == "rnn-fit" and code == 0:
        nets = [SigmoidNetwork.from_json(str(out_dir / f"network_{i + 1}.json"))
                for i in range(3)]
        cfg = load_config(str(config_path))
        tuning = cli.run_tune(cfg)
        traj = cli.run_simulate(cfg, bank=nets)
        decision = cli.run_decide(cfg, traj, tuning)
        configs = cfg.class_configs()
        analysis.convergence_report(traj, cfg.classes[cfg.true_class], cfg.true_theta,
                                    cli.theta_bound_for(cfg, tuning),
                                    configs[cfg.true_class], cfg.true_class)
        fit = json.loads((out_dir / "fit_report.json").read_text())
        div = json.loads((out_dir / "divergence.json").read_text())
        sig["eps_N"] = fit["sweep"][-1]["eps_N"]
        sig["divergence_passed"] = [c["passed"] for c in div["per_class"]]
        sig["decisions"] = [_decision_signature(decision.to_dict())]
    elif workload == "report-sweep" and code == 0:
        rep = json.loads((out_dir / "report.json").read_text())
        sig["decisions"] = [_decision_signature(rep["decision"])] + [
            _decision_signature(d) for d in rep["sweep_decisions"]]
    elif workload == "dense-record" and code == 0:
        dec = json.loads((out_dir / "decision.json").read_text())
        conv = json.loads((out_dir / "convergence.json").read_text())
        sig["decisions"] = [_decision_signature(dec)]
        sig["entered"] = conv["entered"]
        sig["csv_hash"] = hashlib.sha256(
            (out_dir / "trajectory.csv").read_bytes()).hexdigest()[:16]

    def span(a, b):
        return pace.adjusted(a, b) if pace is not None else b - a

    sims = tracer.events_named("cli.run_simulate")
    sig["trajectories"] = [_traj_signature(traj) for _, _, _, (_, traj) in sims]
    csv = out_dir / "trajectory.csv"
    op = Op(
        exit_code=code,
        command_s=span(t0, t1),
        wall_s=t1 - t0,
        classify_s=[],
        sim_s=sum(span(e[1], e[2]) for e in sims),
        class_steps=0,
        steps=0,
        rows=0,
        csv_bytes=csv.stat().st_size if csv.exists() else 0,
        useful_steps=0,
        classify_steps=0,
        fit_s=sum(span(e[1], e[2]) for e in tracer.events_named("cli.fit_bank")),
        signature=sig,
    )
    # A classification is a full-horizon run_simulate plus the decide and
    # convergence_report calls that follow it; the divergence check of
    # fit-rnn integrates with an explicit short horizon and is not one.
    current = None
    for name, start, end, value in sorted(tracer.events, key=lambda e: e[1]):
        if name == "cli.run_simulate":
            horizon, traj = value
            steps = (len(traj.times) - 1) * int(traj.meta["record_every"])
            op.steps += steps
            op.rows += len(traj.times)
            op.class_steps += steps * traj.n_classes
            current = None
            if horizon is None:
                op.classify_s.append(span(start, end))
                op.classify_steps += steps
                current = (traj, steps)
        elif name in ("cli.run_decide", "analysis.convergence_report") and current:
            op.classify_s[-1] += span(start, end)
            if name == "cli.run_decide":
                traj, steps = current
                dt = float(traj.meta["dt"])
                if value.t_prime is None:
                    op.useful_steps += steps
                else:
                    useful = round((value.t_prime + value.T_star - traj.times[0]) / dt)
                    op.useful_steps += min(steps, useful)
    return op


# ------------------------------------------------------------ output checks


def true_class(config: dict) -> int:
    return int(config["true"]["class"])


def check_op(op: Op, config: dict, ref: dict | None) -> tuple[list[str], bool]:
    """Misses of one operation, and whether every trajectory hash matched.

    A miss is a nonzero exit code, a decision for another class than the
    true one, or an output outside the stored reference's tolerance.
    """
    misses: list[str] = []
    if op.exit_code != 0:
        misses.append(f"exit code {op.exit_code}")
        return misses, False
    sig = op.signature
    for i, d in enumerate(sig["decisions"]):
        if d["decided"] != true_class(config):
            misses.append(f"decision {i}: decided {d['decided']} ({d['status']}), "
                          f"true class {true_class(config)}")
    if ref is None:
        misses.append("no stored reference")
        return misses, False
    def outcome(d):
        return d["decided"], d["status"]

    if list(map(outcome, sig["decisions"])) != list(map(outcome, ref["decisions"])):
        misses.append("decisions differ from the reference")
    else:
        # Equal outcomes: theta estimates are both set (decided) or both None.
        for i, (d, r) in enumerate(zip(sig["decisions"], ref["decisions"])):
            got, want = d["theta_estimate"], r["theta_estimate"]
            if got is not None and abs(got - want) > THETA_ATOL:
                misses.append(f"decision {i}: theta estimate {got} vs reference {want}")
    for key in ("divergence_passed", "entered"):
        if key in ref and sig.get(key) != ref[key]:
            misses.append(f"{key} {sig.get(key)} vs reference {ref[key]}")
    if "eps_N" in ref and not np.allclose(sig["eps_N"], ref["eps_N"], rtol=EPS_N_RTOL, atol=0):
        misses.append(f"eps_N {sig['eps_N']} vs reference {ref['eps_N']}")
    trajs, ref_trajs = sig["trajectories"], ref["trajectories"]
    if [(t["rows"], t["classes"]) for t in trajs] != [(t["rows"], t["classes"]) for t in ref_trajs]:
        misses.append("trajectory shapes differ from the reference")
    else:
        for i, (t, r) in enumerate(zip(trajs, ref_trajs)):
            if not np.allclose(t["samples"], r["samples"], rtol=0, atol=STATE_ATOL):
                misses.append(f"trajectory {i}: states outside {STATE_ATOL} of the reference")
    exact = len(trajs) == len(ref_trajs) and all(
        t["hash"] == r["hash"] for t, r in zip(trajs, ref_trajs)
    ) and sig.get("csv_hash") == ref.get("csv_hash")
    return misses, exact


def load_reference(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())
