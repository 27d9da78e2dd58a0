"""Experiment runner: tune -> simulate -> verify -> fit-rnn -> report.

Exit codes: 0 success, 1 usage/parse error, diverged integration or a singular
network fit ("normal equations are singular; increase ridge"), 3 trajectory
never entered the target set, 4 verification failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, classify, rnn, signals
from .config import THETA_BOUND_FALLBACK, VERSION, ExperimentConfig, load_config, sub_seed
from .integrator import integrate_system, rk4_stepper, write_csv
from .prototype import TuningReport, choose_winding, compute_L, compute_c, error_bound, tune_hstar

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_ENTERED = 3
EXIT_VERIFY_FAIL = 4


# ---------------------------------------------------------------- pipeline


def rho_envelope_for(cfg: ExperimentConfig, class_index: int) -> signals.RhoEnvelope:
    """Empirical excitation envelope for one class on the configured input."""
    clazz = cfg.classes[class_index]
    span = cfg.prototype.b - cfg.prototype.a
    separations = np.linspace(span / 8.0, span, 8)
    return signals.RhoEnvelope(signals.persistency_envelope(
        clazz, cfg.inp, clazz.theta_range[0], separations,
        cfg.tuning.window_T, cfg.tuning.pe_horizon, dt=1e-2,
    ), reach=span)


def run_tune(cfg: ExperimentConfig) -> TuningReport:
    """Evaluate every tuning formula for the true class of the experiment."""
    i = cfg.true_class
    clazz = cfg.classes[i]
    pconf = cfg.class_configs()[i]
    a, b = pconf.a, pconf.b
    phi_min = cfg.plant.phi_min
    d_theta = clazz.lipschitz_theta

    c = compute_c(d_theta, phi_min, a, b)
    gamma = pconf.gamma
    s_min, s_max = cfg.plant.s0_range
    # load_config admitted this gain by the same budget_denominator test
    h_star = tune_hstar(s_min, s_max, d_theta, a, b, phi_min,
                        gamma, cfg.prototype.kappa, cfg.prototype.d, c)
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
        vacuous=err >= b - a,
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
        seed=sub_seed(cfg.simulation.seed, "noise"),
        record_every=record_every,
        s0=cfg.simulation.s0,
    )


def theta_bound_for(cfg: ExperimentConfig, tuning: TuningReport) -> float:
    if cfg.decision.theta_bound is not None:
        return cfg.decision.theta_bound
    if tuning.error_bound > 0:
        return tuning.error_bound
    return THETA_BOUND_FALLBACK


def decision_band(cfg: ExperimentConfig) -> float:
    """The band on |h_f| that decide judges: decision.eps plus the noise band
    noise_bound/phi_min."""
    return cfg.decision.eps + cfg.plant.radius()


def run_decide(cfg: ExperimentConfig, traj, tuning: TuningReport):
    return classify.decide(
        traj,
        T_star=cfg.decision.T_star,
        band=decision_band(cfg),
        band_theta=theta_bound_for(cfg, tuning),
    )


def fit_bank(cfg: ExperimentConfig):
    """Fit one network of rnn.N units per class to its subsystem right-hand
    side; returns the networks."""
    r = cfg.rnn
    configs = cfg.class_configs()
    true_sup = rnn.drive_sup(cfg.classes[cfg.true_class], cfg.inp.xi_sup,
                             cfg.prototype.a, cfg.prototype.b)
    s0_bound = max(abs(v) for v in cfg.plant.s0_range)
    s_bound = max(s0_bound, cfg.plant.radius(true_sup))
    nets = []
    for i, (clazz, pconf) in enumerate(zip(cfg.classes, configs)):
        box = rnn.domain_box(clazz, pconf, cfg.inp.xi_sup, s_bound,
                             shat0_bound=s0_bound, plant=cfg.plant)
        ds = rnn.sample_rhs(
            clazz, pconf, box, r.n_train, cfg.plant.phi_min,
            seed=sub_seed(cfg.simulation.seed, f"sample_{i}"),
        )
        nets.append(rnn.fit_network(
            ds, r.N,
            ridge=r.ridge,
            seed=sub_seed(cfg.simulation.seed, f"fit_{i}"),
            sigmoid=r.sigmoid,
        ))
    return nets


def check_divergence(cfg: ExperimentConfig, nets) -> list:
    """Gronwall check of fitted networks over rnn.check_horizon: one
    DivergenceReport per class, against decision_band(cfg), the band that
    run_decide judges.  The prototype bank runs first, then the network
    bank, each given the horizon by keyword."""
    horizon = cfg.rnn.check_horizon
    traj_p = run_simulate(cfg, horizon=horizon)
    traj_r = run_simulate(cfg, horizon=horizon, bank=nets)
    phi_min = cfg.plant.phi_min
    band = decision_band(cfg)
    reports = []
    for i, (clazz, pconf, net) in enumerate(zip(cfg.classes, cfg.class_configs(), nets)):
        L_i = rnn.estimate_rhs_lipschitz(clazz, pconf, phi_min, net.domain,
                                         seed=sub_seed(cfg.simulation.seed, f"lip_{i}"))
        reports.append(rnn.divergence_check(traj_p, traj_r, net, L_i, band, cfg.inp.xi,
                                            class_index=i))
    return reports


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


def _finite(value):
    """value with every inf and nan float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _json_text(value, **kwargs) -> str:
    """Standard JSON: a non-finite float is written as null; the payload's
    own flags (sweep_entered, condition_ok) say why it has no value."""
    return json.dumps(_finite(value), allow_nan=False, **kwargs)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(payload, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _stamped_csv(path: Path, cfg: ExperimentConfig):
    """The open CSV artifact path, its first line the stamp as a comment."""
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.hash} version={VERSION}\n")
        yield fh


def cmd_tune(args) -> int:
    cfg = _load(args)
    payload = _stamp(asdict(run_tune(cfg)), cfg)
    _write_json(_outdir(args) / "tuning.json", payload)
    print(_json_text(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    tuning = run_tune(cfg)
    out = _outdir(args)
    configs = cfg.class_configs()
    traj = run_simulate(cfg)
    with _stamped_csv(out / "trajectory.csv", cfg) as fh:
        traj.to_csv(fh)
    bound = theta_bound_for(cfg, tuning)
    conv = analysis.convergence_report(
        traj, cfg.classes[cfg.true_class], cfg.true_theta, bound,
        configs[cfg.true_class], cfg.true_class,
    )
    decision = run_decide(cfg, traj, tuning)
    _write_json(out / "convergence.json", _stamp(asdict(conv), cfg))
    _write_json(out / "decision.json", _stamp(asdict(decision), cfg))
    print(f"entered={conv.entered} entry_time={conv.entry_time} "
          f"status={decision.status} decided={decision.decided}")
    return EXIT_OK if conv.entered else EXIT_NOT_ENTERED


def cmd_verify(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    which = args.which
    if which == "persistency":
        # The samples of the envelope that tune builds, as sampled.
        rho_samples = rho_envelope_for(cfg, cfg.true_class).samples
        passed = all(gap > 0 for _, gap in rho_samples)
        payload = _stamp(
            {
                "check": "persistency",
                "window_T": cfg.tuning.window_T,
                "horizon": cfg.tuning.pe_horizon,
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
        violations = analysis.check_state_bounds(traj, configs, d_theta, cfg.plant)
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
    # evaluate it at the stage times instead. The stage function reads uk,
    # which the loop rebinds.
    phi_min = cfg.plant.phi_min
    step = rk4_stepper(1)

    def held(q, tt):
        return [-phi_min * q[0] + uk]

    z = [0.0]
    for tk, uk in zip(t[:-1].tolist(), u.tolist()):
        z += step(held, z[-1:], tk, dt)
    return analysis.verify_filtered_pe(np.array(z), u, dt, L, Delta=cfg.plant.radius())


def cmd_fit_rnn(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    nets = fit_bank(cfg)
    for i, net in enumerate(nets):
        _write_json(out / f"network_{i + 1}.json", _stamp(net.to_dict(), cfg))
    eps_N = [n.eps_N for n in nets]
    sweep = [{"N": cfg.rnn.N, "eps_N": eps_N, "eps_N_basis": rnn.EPS_N_BASIS}]
    _write_json(out / "fit_report.json", _stamp({"sweep": sweep}, cfg))

    verdict = "skipped"  # rnn.check_horizon 0 runs no check
    if cfg.rnn.check_horizon > 0:
        reports = check_divergence(cfg, nets)
        per_class = [asdict(rep) for rep in reports]
        _write_json(out / "divergence.json", _stamp({"per_class": per_class}, cfg))
        verdict = "pass" if all(rep.passed for rep in reports) else "FAIL"
    print(f"fit-rnn: eps_N={[f'{e:.4g}' for e in eps_N]} divergence={verdict}")
    return EXIT_VERIFY_FAIL if verdict == "FAIL" else EXIT_OK


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
    with _stamped_csv(out / "sweep.csv", cfg) as fh:
        write_csv(fh, "theta,entry_time,residence,winding_spent", [np.array(rows)])
    entry_times = [row[1] for row in rows]
    entered = not any(math.isnan(t) for t in entry_times)
    summary = _stamp(
        {
            "tuning": asdict(tuning),
            "decision": asdict(decision),
            # Largest entry time over the grid; a theta that never enters makes
            # it inf, written as null.
            "T_prime_max_empirical": max([0.0, *entry_times]) if entered else math.inf,
            "theta_bound": bound,
            "sweep_entered": entered,
            "sweep_decisions": sweep_decisions,
        },
        cfg,
    )
    _write_json(out / "report.json", summary)
    print(_json_text(summary["decision"], indent=2))
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
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
