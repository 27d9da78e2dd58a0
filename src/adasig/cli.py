"""Experiment runner: tune -> simulate -> verify -> fit-rnn -> report.

Exit codes: 0 success, 1 usage/parse error or diverged integration,
2 infeasible tuning, 3 trajectory never entered the target set,
4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, classify, rnn, signals
from .config import THETA_BOUND_FALLBACK, VERSION, ExperimentConfig, load_config, sub_seed
from .integrator import integrate_system, rk4_step, write_csv
from .prototype import TuningReport, choose_winding, compute_L, compute_c, error_bound, tune_hstar

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_ENTERED = 3
EXIT_VERIFY_FAIL = 4

# eps_N is the largest error over a held-out sample, not a certified bound.
EPS_N_BASIS = "sampled"


class InfeasibleTuning(Exception):
    pass


# ---------------------------------------------------------------- pipeline


def rho_envelope_for(cfg: ExperimentConfig, class_index: int) -> signals.RhoEnvelope:
    """Empirical excitation envelope for one class on the configured input."""
    clazz = cfg.classes[class_index]
    span = cfg.prototype.b - cfg.prototype.a
    separations = np.linspace(span / 8.0, span, 8)
    return signals.RhoEnvelope(signals.persistency_envelope(
        clazz, cfg.inp, clazz.theta_range[0], separations,
        cfg.tuning.window_T, cfg.tuning.pe_horizon, dt=1e-2,
    ))


def run_tune(cfg: ExperimentConfig, class_index=None) -> TuningReport:
    """Evaluate every tuning formula for one class of the experiment."""
    i = cfg.true_class if class_index is None else class_index
    clazz = cfg.classes[i]
    pconf = cfg.class_configs()[i]
    a, b = pconf.a, pconf.b
    phi_min = cfg.plant.phi_min
    d_theta = clazz.lipschitz_theta

    c = compute_c(d_theta, phi_min, a, b)
    gamma = pconf.gamma
    s_min, s_max = cfg.plant.s0_range
    try:
        # The supremum gain makes the budget denominator vanish; the budget
        # is evaluated at the working gain, which sits strictly inside.
        h_star = tune_hstar(s_min, s_max, d_theta, a, b, phi_min,
                            gamma, pconf.kappa, pconf.d, c)
    except ValueError as exc:
        raise InfeasibleTuning(str(exc)) from exc
    k_prime = choose_winding(h_star, pconf.nu_x)

    rho = rho_envelope_for(cfg, i)
    d_f = 2.0 * clazz.lipschitz_xi * cfg.inp.dxi_sup
    L = compute_L(cfg.tuning.window_T, rho(b - a), d_f)
    err = error_bound(cfg.plant.noise_bound, d_theta, a, b, d_f, L, rho.inverse)
    return TuningReport(
        c=c,
        gamma_star=cfg.gamma_star[i],
        gamma=gamma,
        h_star=h_star,
        k_prime=k_prime,
        L=L,
        error_bound=err,
        epsilon=pconf.epsilon,
        delta=pconf.delta,
    )


def run_simulate(cfg: ExperimentConfig, theta=None, horizon=None, bank=None):
    """Integrate the configured bank against the true plant; returns Trajectory.
    An explicit horizon is checked against the simulation grid too."""
    horizon, dt, record_every = cfg.simulation_grid(horizon)
    if bank is None:
        bank = list(zip(cfg.classes, cfg.class_configs()))
    return integrate_system(
        cfg.plant,
        cfg.classes[cfg.true_class],
        cfg.true_theta if theta is None else theta,
        bank,
        cfg.inp,
        t0=cfg.simulation.t0,
        horizon=horizon,
        dt=dt,
        seed=sub_seed(cfg.seed, "noise"),
        record_every=record_every,
        s0=cfg.simulation.s0,
    )


def theta_bound_for(cfg: ExperimentConfig, tuning: TuningReport) -> float:
    if cfg.decision.theta_bound is not None:
        return cfg.decision.theta_bound
    if tuning.error_bound > 0:
        return tuning.error_bound
    return THETA_BOUND_FALLBACK


def run_decide(cfg: ExperimentConfig, traj, tuning: TuningReport):
    dec = cfg.decision
    return classify.decide(
        traj,
        T_star=dec.T_star,
        eps=dec.eps,
        D_of_noise=classify.band_from_noise(cfg.plant.noise_bound, cfg.plant.phi_min),
        settle=dec.settle,
        band_theta=theta_bound_for(cfg, tuning),
    )


def fit_bank(cfg: ExperimentConfig, N=None):
    """Fit one network per class to its subsystem right-hand side; returns
    the networks and their training sup-errors."""
    r = cfg.rnn
    N = r.N if N is None else N
    configs = cfg.class_configs()
    true_sup = rnn.drive_sup(cfg.classes[cfg.true_class], cfg.inp.xi_sup,
                             cfg.prototype.a, cfg.prototype.b)
    s0_bound = max(abs(v) for v in cfg.plant.s0_range)
    s_bound = max(s0_bound, (true_sup + cfg.plant.noise_bound) / cfg.plant.phi_min)
    nets, train_errors = [], []
    for i, (clazz, pconf) in enumerate(zip(cfg.classes, configs)):
        box = rnn.domain_box(
            clazz, pconf, cfg.inp.xi_sup, s_bound,
            shat0_bound=s0_bound, noise_bound=cfg.plant.noise_bound,
            phi_min=cfg.plant.phi_min,
        )
        ds = rnn.sample_rhs(
            clazz, pconf, box, r.n_train, cfg.plant.phi,
            seed=sub_seed(cfg.seed, f"sample_{i}"),
        )
        net, train_error = rnn.fit_network(
            ds, N,
            ridge=r.ridge,
            seed=sub_seed(cfg.seed, f"fit_{i}"),
            sigmoid=r.sigmoid,
        )
        nets.append(net)
        train_errors.append(train_error)
    return nets, train_errors


# ---------------------------------------------------------------- commands


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> ExperimentConfig:
    """Load the config; --seed/--dt overrides enter its simulation section,
    and the overridden mapping is loaded again, so they enter the hash and
    every load-time check."""
    overrides = {k: v for k, v in (("seed", args.seed), ("dt", args.dt)) if v is not None}
    if not overrides:
        return load_config(args.config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the second load repeats any warning
        raw = load_config(args.config).raw
    return load_config(raw | {"simulation": raw.get("simulation", {}) | overrides})


def _stamp(payload: dict, cfg: ExperimentConfig) -> dict:
    payload["config_hash"] = cfg.hash
    payload["version"] = VERSION
    return payload


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_tune(args) -> int:
    cfg = _load(args)
    payload = _stamp(asdict(run_tune(cfg)), cfg)
    _write_json(_outdir(args) / "tuning.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    tuning = run_tune(cfg)
    out = _outdir(args)
    configs = cfg.class_configs()
    traj = run_simulate(cfg)
    csv_path = out / "trajectory.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"# config_hash={cfg.hash} version={VERSION}\n")
        traj.to_csv(fh)
    bound = theta_bound_for(cfg, tuning)
    conv = analysis.convergence_report(
        traj, cfg.classes[cfg.true_class], cfg.true_theta, bound,
        configs[cfg.true_class], cfg.true_class,
    )
    decision = run_decide(cfg, traj, tuning)
    conv.decided_class = decision.decided
    _write_json(out / "convergence.json", _stamp(conv.to_dict(), cfg))
    _write_json(out / "decision.json", _stamp(asdict(decision), cfg))
    print(f"entered={conv.entered} entry_time={conv.entry_time} "
          f"status={decision.status} decided={decision.decided}")
    return EXIT_OK if conv.entered else EXIT_NOT_ENTERED


def cmd_verify(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    which = args.which
    if which == "persistency":
        window_T, horizon = cfg.tuning.window_T, cfg.tuning.pe_horizon
        clazz = cfg.classes[cfg.true_class]
        lo, hi = clazz.theta_range
        rho_samples = signals.persistency_envelope(
            clazz, cfg.inp, lo, np.linspace((hi - lo) / 4, hi - lo, 4),
            window_T, horizon, dt=1e-2,
        )
        passed = all(gap > 0 for _, gap in rho_samples)
        payload = _stamp(
            {
                "check": "persistency",
                "window_T": window_T,
                "horizon": horizon,
                "rho_samples": rho_samples,
                "satisfied": passed,
            },
            cfg,
        )
    elif which == "pe":
        report = verify_pe_example(cfg)
        passed = report.ok
        payload = _stamp(asdict(report) | {"check": "pe"}, cfg)
    elif which == "bounds":
        traj = run_simulate(cfg)
        configs = cfg.class_configs()
        d_theta = max(c.lipschitz_theta for c in cfg.classes)
        violations = analysis.check_state_bounds(
            traj, configs, d_theta, cfg.plant.noise_bound, cfg.plant.phi_min
        )
        passed = not violations
        payload = _stamp({"check": "bounds", "violations": violations}, cfg)
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_PARSE
    _write_json(out / f"verify_{which}.json", payload)
    print(f"{which}: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def verify_pe_example(cfg: ExperimentConfig) -> analysis.PEReport:
    """Filter the class drive through the plant and verify it stays exciting."""
    clazz = cfg.classes[cfg.true_class]
    L, horizon = cfg.tuning.window_T, cfg.tuning.pe_horizon
    dt = 1e-3
    t = np.arange(0.0, horizon + dt / 2, dt)
    lo, hi = clazz.theta_range
    # Compare against the lower end of the range, or the upper end when the
    # true parameter sits on the lower end itself.
    theta = hi if cfg.true_theta == lo else cfg.true_theta
    xi = cfg.inp.xi(t)
    u = np.asarray(clazz.f(xi, theta) - clazz.f(xi, lo), dtype=float)
    # RK4 with the drive held at u[k] over each step; integrate_system would
    # evaluate it at the stage times instead.
    phi = cfg.plant.phi
    z = [0.0]
    for tk, uk in zip(t[:-1].tolist(), u.tolist()):
        z += rk4_step(lambda q, tt: [-phi(q[0]) + uk], z[-1:], tk, dt)
    z = np.array(z)
    delta = float(np.min(analysis._window_integrals(u, dt, L)))
    Delta = cfg.plant.noise_bound / cfg.plant.phi_min
    return analysis.verify_filtered_pe(z, u, dt, L, delta, Delta=Delta)


def cmd_fit_rnn(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    check_h = cfg.rnn.check_horizon
    last_nets, sweep = None, []
    for N in cfg.rnn.N_list:
        nets, _ = fit_bank(cfg, N=N)
        sweep.append({"N": N, "eps_N": [n.eps_N for n in nets], "eps_N_basis": EPS_N_BASIS})
        last_nets = nets
    for i, net in enumerate(last_nets):
        net.to_json(out / f"network_{i + 1}.json")
    _write_json(out / "fit_report.json", _stamp({"sweep": sweep}, cfg))

    passed = True
    if check_h > 0:
        traj_p = run_simulate(cfg, horizon=check_h)
        traj_r = run_simulate(cfg, horizon=check_h, bank=last_nets)
        configs = cfg.class_configs()
        results = []
        for i, net in enumerate(last_nets):
            L_i = rnn.estimate_rhs_lipschitz(
                cfg.classes[i], configs[i], cfg.plant.phi, net.domain,
                seed=sub_seed(cfg.seed, f"lip_{i}"),
            )
            rep = rnn.divergence_check(traj_p, traj_r, net.eps_N, L_i, class_index=i)
            results.append(asdict(rep) | {"L_i": L_i, "eps_N_basis": EPS_N_BASIS})
            passed = passed and rep.passed
        _write_json(out / "divergence.json", _stamp({"per_class": results}, cfg))
    print(f"fit-rnn: eps_N={[f'{n.eps_N:.4g}' for n in last_nets]} "
          f"divergence={'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def cmd_report(args) -> int:
    """Full pipeline: tune, simulate, decide, sweep; one summary JSON."""
    cfg = _load(args)
    out = _outdir(args)
    tuning = run_tune(cfg)
    decision = run_decide(cfg, run_simulate(cfg), tuning)
    bound = theta_bound_for(cfg, tuning)
    i = cfg.true_class

    rows, sweep_decisions = [], []
    for theta in cfg.theta_grid().tolist():
        traj = run_simulate(cfg, theta=theta)
        d = run_decide(cfg, traj, tuning)
        sweep_decisions.append(
            {"theta": theta, "decided": d.decided, "status": d.status,
             "theta_estimate": d.theta_estimate, "t_prime": d.t_prime}
        )
        conv = analysis.convergence_report(traj, cfg.classes[i], theta, bound,
                                           cfg.class_configs()[i], i)
        entry = math.nan if conv.entry_time is None else conv.entry_time
        rows.append([theta, entry, conv.residence, conv.winding_spent])
    write_csv(out / "sweep.csv", "theta,entry_time,residence,winding_spent", [np.array(rows)])
    entry_times = [row[1] for row in rows]
    entered = not any(math.isnan(t) for t in entry_times)
    summary = _stamp(
        {
            "tuning": asdict(tuning),
            "decision": asdict(decision),
            # Largest entry time over the grid; a theta that never enters makes it inf.
            "T_prime_max_empirical": max([0.0, *entry_times]) if entered else math.inf,
            "theta_bound": bound,
            "sweep_entered": entered,
            "sweep_decisions": sweep_decisions,
        },
        cfg,
    )
    _write_json(out / "report.json", summary)
    print(json.dumps(summary["decision"], indent=2))
    return EXIT_OK if entered else EXIT_NOT_ENTERED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adasig",
        description="Adaptive temporal-signal classification experiments",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("tune", cmd_tune),
        ("simulate", cmd_simulate),
        ("verify", cmd_verify),
        ("fit-rnn", cmd_fit_rnn),
        ("report", cmd_report),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.set_defaults(func=fn)
        if name == "verify":
            p.add_argument("--which", choices=["pe", "persistency", "bounds"],
                           default="persistency")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors; the contract reserves 1
        return EXIT_PARSE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except InfeasibleTuning as exc:
        print(f"infeasible tuning: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, OSError, json.JSONDecodeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
