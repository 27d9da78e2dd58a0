"""Tests of the benchmark itself: hooks, output checks and metric names.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
The operations here use shortened configs so the file takes seconds.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import Tracer, install_layer_hooks, install_phase_hooks  # noqa: E402


def _bindings():
    """Every attribute of every adasig module and hooked class, by identity."""
    import adasig  # noqa: F401
    from adasig import cli, integrator, rnn  # noqa: F401  (load every module first)

    owners = [m for n, m in sys.modules.items() if n == "adasig" or n.startswith("adasig.")]
    owners += [integrator.Trajectory, rnn.SigmoidNetwork]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())
            if k != "__warningregistry__"}  # the warnings module adds it


def _small_config(workload):
    config = wl.make_config(workload, 0)
    if workload == "dense-record":
        config["simulation"]["horizon"] = 30.0
        config["decision"]["T_star"] = 5.0
    else:
        config["simulation"]["horizon"] = 6.0
        config["decision"]["T_star"] = 1.0
        config["rnn"].update(N=24, n_train=600, check_horizon=0.5)
    return config


def _run(workload, tmp_path, traced):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_small_config(workload)))
    with Tracer() as tracer:
        install_phase_hooks(tracer)
        if traced:
            install_layer_hooks(tracer)
        op = wl.run_op(workload, path, tmp_path / "out", tracer)
        counts = metrics.layer_counts(tracer, op) if traced else None
        layer = metrics.layers(tracer, op) if traced else None
    return op, counts, layer


@pytest.mark.parametrize("workload", ["dense-record", "rnn-fit"])
def test_hooks_removed_after_traced_pass(workload, tmp_path):
    before = _bindings()
    _run(workload, tmp_path, traced=True)
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


@pytest.mark.parametrize("workload", ["dense-record", "rnn-fit"])
def test_traced_and_untraced_outputs_identical(workload, tmp_path):
    plain, _, _ = _run(workload, tmp_path, traced=False)
    traced, counts, layer = _run(workload, tmp_path, traced=True)
    assert plain.exit_code == traced.exit_code
    assert plain.signature == traced.signature
    assert plain.signature["trajectories"]
    assert plain.counts() == traced.counts()
    # The traced step count is counted at rk4_step; the untraced one is
    # read off the trajectories.
    assert counts["integrator.steps"] == plain.steps
    if workload == "dense-record":
        # one class: xi once and f twice (plant, subsystem) per RK4 stage
        assert layer["signals.xi_calls_per_step"] == 4
        assert layer["signals.f_calls_per_step"] == 8
        assert counts["prototype.rhs_calls"] == 4 * plain.steps
    else:
        assert counts["rnn.target_rows"] == 3 * 600
        assert counts["rnn.net_rhs_calls"] > 0


def test_counts_repeat_between_traced_operations(tmp_path):
    _, first, _ = _run("dense-record", tmp_path, traced=True)
    _, second, _ = _run("dense-record", tmp_path, traced=True)
    assert first == second


def _fake_op(decided=1, theta=1.5, sample=0.25, code=0):
    sig = {"decisions": [{"decided": decided, "status": "decided", "theta_estimate": theta}],
           "trajectories": [{"hash": "h", "rows": 3, "classes": 1,
                             "samples": [[0.5, sample, 1.0, 0.0]]}]}
    return wl.Op(exit_code=code, command_s=1.0, wall_s=1.0, classify_s=[1.0], sim_s=1.0, class_steps=1,
                 steps=1, rows=3, csv_bytes=0, useful_steps=1, classify_steps=1,
                 signature=sig)


def test_check_op_against_reference():
    config = {"true": {"class": 1}}
    ref = _fake_op().signature
    assert wl.check_op(_fake_op(), config, ref) == ([], True)
    near = _fake_op(theta=1.5 + wl.THETA_ATOL / 2, sample=0.25 + wl.STATE_ATOL / 2)
    near.signature["trajectories"][0]["hash"] = "other"
    assert wl.check_op(near, config, ref) == ([], False)
    assert wl.check_op(_fake_op(theta=1.5 + 2 * wl.THETA_ATOL), config, ref)[0]
    assert wl.check_op(_fake_op(sample=0.25 + 2 * wl.STATE_ATOL), config, ref)[0]
    assert wl.check_op(_fake_op(decided=0), config, ref)[0]
    assert wl.check_op(_fake_op(code=4), config, ref)[0]
    assert wl.check_op(_fake_op(), config, None)[0]


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert set(metrics.WORKLOAD_LAYERS) == set(wl.WORKLOADS)
    for own in metrics.WORKLOAD_LAYERS.values():
        assert not set(own) & set(metrics.PER_LAYER)


def test_pace_integrates_the_speed_ratio():
    pace = Pace()
    pace.times, pace.ratios = [1.0, 2.0, 3.0], [0.5, 1.0, 2.0]
    # (-inf, 1] at 0.5, (1, 2] at 1.0, (2, 3] and beyond at 2.0
    assert pace.adjusted(0.0, 1.0) == pytest.approx(0.5)
    assert pace.adjusted(0.5, 2.5) == pytest.approx(0.25 + 1.0 + 1.0)
    assert pace.adjusted(3.0, 5.0) == pytest.approx(4.0)
    assert pace.ratio(1.0, 2.0) == pytest.approx(1.0)
    assert Pace().adjusted(1.0, 3.0) == 2.0  # no samples: wall time


def test_pace_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with Pace(period=0.01) as pace:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pace.ratios) >= 5 and all(r > 0 for r in pace.ratios)
