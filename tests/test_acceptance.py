"""End-to-end acceptance suite for the adaptive-classification library.

Each test verifies one quantitative guarantee of the construction at desk
scale and prints a single PASS/FAIL line.  Tolerances are pinned; expensive
artifacts (tuning reports, trajectory sweeps, fitted networks) are shared
through module-scoped fixtures.  Expected total runtime is a few minutes,
dominated by the 11-point parameter sweep and the network fits.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from adasig import analysis, cli, config, plant, prototype, rnn, signals
from adasig.integrator import integrate_system, rk4_step

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

LINEAR = signals.builtin_class("linear", (1.0, 2.0))


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {name}" + (f" — {detail}" if detail else ""))


# ------------------------------------------------------------ shared fixtures


@pytest.fixture(scope="module")
def three_class():
    cfg = config.load_config(str(CONFIG_DIR / "three_class.json"))
    tuning = cli.run_tune(cfg)
    return cfg, tuning


@pytest.fixture(scope="module")
def one_class():
    cfg = config.load_config(str(CONFIG_DIR / "one_class_linear.json"))
    tuning = cli.run_tune(cfg)
    traj = cli.run_simulate(cfg)
    return cfg, tuning, traj


@pytest.fixture(scope="module")
def rnn_demo():
    cfg = config.load_config(str(CONFIG_DIR / "rnn_demo.json"))
    tuning = cli.run_tune(cfg)
    nets, train_errors = cli.fit_bank(cfg)
    return cfg, tuning, nets, train_errors


# ----------------------------------------------------------------- criteria


def test_01_state_count(three_class):
    """The classifier bank carries exactly 3 dynamical states per class."""
    cfg, _ = three_class
    traj = cli.run_simulate(cfg, horizon=1.0)
    n_f = len(cfg.classes)
    bank_states = traj.states.shape[1] - 1  # minus the measurement column
    ok = bank_states == 3 * n_f and traj.n_classes == n_f
    _line(1, "state count is 3 per class", ok, f"classes={n_f} bank_states={bank_states}")
    assert ok


def test_02_filter_contraction():
    """Two plant runs differing only in s0 contract like exp(-phi_min t)."""
    spec = plant.PlantSpec(
        phi=lambda s: s, phi_min=1.0,
        s0_range=(0.0, 1.0), noise_bound=1e-4,
    )
    inp = signals.sin_input()
    kw = dict(t0=0.0, horizon=10.0, dt=1e-3, seed=7, record_every=1)
    ta = integrate_system(spec, LINEAR, 1.5, [], inp, s0=0.2, **kw)
    tb = integrate_system(spec, LINEAR, 1.5, [], inp, s0=0.9, **kw)
    gap = np.abs(ta.column("s") - tb.column("s"))
    envelope = 0.7 * np.exp(-spec.phi_min * ta.times)
    worst = float(np.max(np.abs(gap - envelope)))
    ok = worst < 1e-6
    _line(2, "filter contraction envelope", ok, f"max deviation {worst:.3e} < 1e-6")
    assert ok


def test_03_polar_equivalence():
    """Cartesian rotator rates match the exact polar form to 1e-12."""
    rng = np.random.default_rng(3)
    cfg = prototype.PrototypeConfig(gamma=1.0, a=1.0, b=2.0, epsilon=0.0, delta=0.0)
    bank = [prototype.subsystem_constants(LINEAR, cfg)]
    worst = 0.0
    for _ in range(10_000):
        x, y = rng.uniform(-2.0, 2.0, 2)
        r = math.hypot(x, y)
        if r < 1e-3:
            continue
        g = float(rng.uniform(0.0, 1.0))
        # realize g = gamma * |shat - s| through the subsystem right-hand side
        d = prototype.prototype_rhs(np.array([g, x, y]), 0.0, 0.3, bank, phi=lambda s: s)
        dx, dy = d[1], d[2]
        dr_c = (x * dx + y * dy) / r
        dnu_c = (x * dy - y * dx) / (r * r)
        dr_p, dnu_p = g * r * (1.0 - r * r), g  # the exact polar form
        worst = max(worst, abs(dr_c - dr_p), abs(dnu_c - dnu_p))
    ok = worst < 1e-12
    _line(3, "polar equivalence of rotator", ok, f"max abs diff {worst:.3e} < 1e-12")
    assert ok


def test_04_tuning_formulas():
    """Gain supremum and phase budget reproduce frozen hand-computed values."""
    gamma_star, _ = prototype.tune_gamma(kappa=2.0, d=0.5, c=1.0, phi_min=1.0)
    h_star = prototype.tune_hstar(
        s_min=0.0, s_max=1.0, d_theta=1.0, a=0.0, b=1.0,
        phi_min=1.0, gamma_star=0.06, kappa=2.0, d=0.5, c=0.5,
    )
    ok_g = abs(gamma_star - 0.06011229337037348) < 1e-9
    ok_h = abs(h_star - 0.6641805641969919) < 1e-9
    ok = ok_g and ok_h
    _line(4, "tuning formulas vs frozen oracles", ok,
          f"gamma*={gamma_star:.12f} h*={h_star:.12f} (tol 1e-9)")
    assert ok


def test_05_winding_budget(one_class):
    """An unperturbed admissible run spends at most pi - nu_x + 2 pi k' of phase."""
    cfg, tuning, traj = one_class
    pconf = cfg.class_configs()[0]
    assert pconf.delta == 0.0
    spent = analysis.convergence_report(traj, cfg.classes[0], cfg.true_theta,
                                        cli.theta_bound_for(cfg, tuning), pconf).winding_spent
    budget = math.pi - pconf.nu_x + 2.0 * math.pi * pconf.k_prime
    ok = spent <= budget
    _line(5, "winding budget", ok, f"spent {spent:.4f} <= budget {budget:.4f}")
    assert ok


def test_06_convergence_and_accuracy(three_class):
    """11-point parameter sweep: correct class, accurate estimate, finite T'."""
    cfg, tuning = three_class
    true = cfg.true_class
    clazz = cfg.classes[true]
    grid = cfg.theta_grid()
    assert len(grid) == 11
    t_primes, failures = [], []
    for th in grid:
        traj = cli.run_simulate(cfg, theta=float(th))
        dec = cli.run_decide(cfg, traj, tuning)
        est_err = signals.set_distance(
            dec.theta_estimate if dec.theta_estimate is not None else math.inf,
            clazz.equivalence_set(float(th)),
        )
        if dec.decided != true or est_err > tuning.error_bound:
            failures.append((float(th), dec.decided, est_err))
        else:
            t_primes.append(dec.t_prime)
    t_max = max(t_primes) if t_primes else math.inf
    ok = not failures and math.isfinite(t_max)
    _line(6, "sweep convergence + accuracy", ok,
          f"11/11 decided class {true}, T'_max={t_max:.1f}, "
          f"bound {tuning.error_bound:.3f}" if ok else f"failures={failures}")
    assert ok


def test_07_perturbed_return_time():
    """With delta > 0 the rotator returns to its initial arc within 2 pi/(gamma delta)."""
    gamma, delta = 2.0 * math.pi, 1e-3
    period = 2.0 * math.pi / (gamma * delta)  # = 1000
    silent = signals.SignalClass(
        name="silent",
        f=lambda xi, th: 0.0 * xi,
        theta_range=(1.0, 2.0),
        equivalence=lambda th: [(th, th)],
        lipschitz_theta=0.0, lipschitz_xi=0.0,
    )
    pconf = prototype.PrototypeConfig(gamma=gamma, a=1.0, b=2.0, epsilon=0.0, delta=delta)
    spec = plant.PlantSpec(phi=lambda s: s, s0_range=(0.0, 0.0), noise_bound=0.0)
    traj = integrate_system(
        spec, silent, 1.5, [(silent, pconf)], signals.sin_input(),
        horizon=2.2 * period, dt=0.05, record_every=10, s0=0.0,
    )
    phase = np.unwrap(np.arctan2(traj.column("y_1"), traj.column("x_1")))
    # times at which the phase completes each full revolution
    returns = []
    for k in (1, 2):
        idx = int(np.searchsorted(phase, phase[0] + 2.0 * math.pi * k))
        assert idx < len(phase)
        returns.append(traj.times[idx])
    gaps = np.diff([traj.times[0]] + returns)
    ok = bool(np.all(gaps <= period * 1.01))
    _line(7, "perturbed return time", ok,
          f"return gaps {[f'{g:.1f}' for g in gaps]} <= {period * 1.01:.1f}")
    assert ok


def test_08_filtered_excitation_lemma():
    """A persistently exciting drive stays exciting after first-order filtering."""
    dt, horizon, L = 1e-3, 40.0, 2.0 * math.pi
    t = np.arange(0.0, horizon + dt / 2, dt)
    u = np.sin(t)
    z = np.empty_like(u)
    z[0] = 0.0
    for k in range(len(t) - 1):  # filter z' = -z + u alongside the drive
        zk = np.array([z[k]])
        z[k + 1] = rk4_step(
            lambda q, tt: np.array([-q[0] + math.sin(tt)]), zk, t[k], dt
        )[0]
    rep = analysis.verify_filtered_pe(z, u, dt, L=L, delta=3.99, Delta=0.1)
    bad = analysis.verify_filtered_pe(z, u, dt, L=L, delta=3.99, Delta=0.5)
    ok = rep.condition_ok and rep.delta_star > 0 and rep.p > 0 and not bad.condition_ok
    _line(8, "filtered excitation lemma", ok,
          f"L*={rep.L_star:.2f} delta*={rep.delta_star:.3f} p={rep.p:.3f}; "
          f"large dead-zone rejected={not bad.condition_ok}")
    assert ok


def test_09_degenerate_input(tmp_path):
    """Inputs with unboundedly growing quiet stretches defeat excitation."""
    inp = signals.degenerate_xi()
    [(_, envelope)] = signals.persistency_envelope(
        LINEAR, inp, 1.3, [0.7], window_T=2.0 * math.pi, horizon=600.0, dt=1e-2
    )
    code = cli.main([
        "verify", "--config", str(CONFIG_DIR / "degenerate_input.json"),
        "--which", "persistency", "--out", str(tmp_path),
    ])
    ok = envelope == 0.0 and code == cli.EXIT_VERIFY_FAIL
    _line(9, "degenerate input detected", ok,
          f"late-window envelope={envelope}, verify exit code={code}")
    assert ok


def test_10_rnn_realization(rnn_demo):
    """Fitted networks stay close to the prototype and reproduce its decision."""
    cfg, tuning, nets, _ = rnn_demo
    configs = cfg.class_configs()
    check_h = 2.0
    traj_p2 = cli.run_simulate(cfg, horizon=check_h)
    traj_r2 = cli.run_simulate(cfg, horizon=check_h, bank=nets)
    div_ok, details = True, []
    for i, net in enumerate(nets):
        L_i = rnn.estimate_rhs_lipschitz(
            cfg.classes[i], configs[i], cfg.plant.phi, net.domain,
            seed=config.sub_seed(cfg.seed, f"lip_{i}"),
        )
        rep = rnn.divergence_check(traj_p2, traj_r2, net.eps_N, L_i, class_index=i)
        div_ok = div_ok and rep.passed
        details.append(f"eps_N={net.eps_N:.3g} L={L_i:.2f} gap={rep.max_gap:.3g}")
    traj_p = cli.run_simulate(cfg)
    traj_r = cli.run_simulate(cfg, bank=nets)
    dec_p = cli.run_decide(cfg, traj_p, tuning)
    dec_r = cli.run_decide(cfg, traj_r, tuning)
    match = dec_p.decided == dec_r.decided and dec_p.decided == cfg.true_class
    ok = div_ok and match
    _line(10, "network realization", ok,
          f"divergence bound honored={div_ok}; decisions "
          f"prototype={dec_p.decided} network={dec_r.decided}; {'; '.join(details)}")
    assert ok


def test_11_integrator_order():
    """Fixed-step RK4 shows fourth-order convergence on a smooth problem."""
    def exact(t):  # s' = -s + sin t, s(0) = 1
        return (math.sin(t) - math.cos(t)) / 2.0 + 1.5 * math.exp(-t)

    def err(dt):
        s = np.array([1.0])
        t, n = 0.0, int(round(1.0 / dt))
        for _ in range(n):
            s = rk4_step(lambda q, tt: np.array([-q[0] + math.sin(tt)]), s, t, dt)
            t += dt
        return abs(s[0] - exact(1.0))

    ratio = err(0.1) / err(0.05)
    ok = 16.0 * 0.7 <= ratio <= 16.0 * 1.3
    _line(11, "integrator is fourth order", ok, f"error ratio {ratio:.2f} in [11.2, 20.8]")
    assert ok
