import math

import numpy as np
import pytest

from adasig import classify, integrator, plant, prototype, signals


def make_config(**kw):
    base = dict(gamma=0.05, a=0.5, b=2.5)
    base.update(kw)
    return prototype.PrototypeConfig(**base)


def synthetic_traj(hf_funcs, theta_hats, dt=0.1, horizon=10.0):
    """Build a trajectory directly from per-class readout time functions."""
    m = len(hf_funcs)
    t = np.arange(0.0, horizon + dt / 2, dt)
    n = len(t)
    theta_hat = np.stack([f(t) for f in theta_hats], axis=1)
    hf = np.stack([f(t) for f in hf_funcs], axis=1)
    states = np.zeros((n, 1 + 3 * m))
    states[:, 1::3] = -hf  # shat = s - hf, s = 0
    return integrator.Trajectory(t, states, theta_hat, hf, {"dt": dt})


def first_readouts(cfg, s0=0.0):
    """(theta_hat_1, hf_1) recorded at t0 for one subsystem started at
    (s0, cos nu_x, sin nu_x)."""
    clazz = signals.builtin_class("linear", (1.0, 2.0))
    spec = plant.PlantSpec(s0_range=(0.0, 1.0))
    traj = integrator.integrate_system(
        spec, clazz, 1.5, [(clazz, cfg)], signals.sin_input(), horizon=0.0, s0=s0,
    )
    return traj.theta_hat[0, 0], traj.hf[0, 0]


class TestReadout:
    """Read-outs are computed by integrate_system from the stacked states."""

    def test_matched_filter_zero(self):
        cfg = make_config(nu_x=math.pi / 2)
        _, hf = first_readouts(cfg, s0=0.7)
        assert hf == 0.0

    def test_theta_readback_endpoints(self):
        cfg = make_config(nu_x=math.pi)
        ht, _ = first_readouts(cfg)
        assert ht == cfg.a
        cfg = make_config(nu_x=0.0)
        ht, _ = first_readouts(cfg)
        assert ht == cfg.b

    def test_midpoint(self):
        # x = cos(pi/2) = 6.1e-17 vanishes in 1 + x
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.0, b=2.0, nu_x=math.pi / 2)
        ht, _ = first_readouts(cfg)
        assert ht == 1.0

    def test_length_check(self):
        with pytest.raises(ValueError):
            integrator.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 4)),
                                  np.zeros((3, 1)), np.zeros((2, 1)))

    def test_memoryless_recomputation_matches_stored(self):
        cfg = make_config(delta=0.01)
        clazz = signals.builtin_class("linear", (1.0, 2.0))
        spec = plant.PlantSpec(s0_range=(0.0, 1.0))
        traj = integrator.integrate_system(
            spec, clazz, 1.5, [(clazz, cfg)], signals.sin_input(), horizon=1.0, dt=1e-2
        )
        for k in range(0, len(traj.times), 3):
            s, shat, x = traj.states[k, :3]
            assert s - shat == traj.hf[k, 0]
            assert prototype.theta_hat(x, cfg.a, cfg.b) == traj.theta_hat[k, 0]


class TestDecide:
    def test_single_clear_winner(self):
        traj = synthetic_traj(
            [lambda t: 0.0 * t, lambda t: 1.0 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, band=0.1)
        assert rep.status == "decided" and rep.decided == 0
        assert rep.theta_estimate == pytest.approx(1.5)
        assert rep.t_prime == traj.times[0]

    def test_all_out_of_band_undecided(self):
        traj = synthetic_traj(
            [lambda t: 1.0 + 0.0 * t, lambda t: 1.0 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, band=0.1)
        assert rep.status == "undecided"
        assert rep.decided is None and rep.theta_estimate is None

    def test_two_qualifying_is_ambiguous(self):
        traj = synthetic_traj(
            [lambda t: 0.0 * t, lambda t: 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, band=0.1)
        assert rep.status == "ambiguous"

    def test_earliest_window_chosen(self):
        # class 0 qualifies only after t = 5
        traj = synthetic_traj(
            [lambda t: np.where(t < 5.0, 1.0, 0.0), lambda t: 1.0 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, band=0.1)
        assert rep.status == "decided"
        assert rep.t_prime == pytest.approx(5.0)

    def test_monotone_in_band(self):
        traj = synthetic_traj(
            [lambda t: 0.05 + 0.0 * t, lambda t: 0.5 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        small = classify.decide(traj, T_star=1.0, band=0.1)
        grown = classify.decide(traj, T_star=1.0, band=0.3)
        assert small.status == "decided"
        assert grown.status in ("decided", "ambiguous")  # never undecided

    def test_noise_widens_band(self):
        traj = synthetic_traj(
            [lambda t: 0.12 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t],
        )
        assert classify.decide(traj, T_star=1.0, band=0.1).status == "undecided"
        noise_band = plant.PlantSpec(noise_bound=0.05).radius()
        assert classify.decide(traj, T_star=1.0, band=0.1 + noise_band).status == "decided"

    def test_window_longer_than_horizon_rejected(self):
        traj = synthetic_traj([lambda t: 0.0 * t], [lambda t: 1.5 + 0.0 * t])
        with pytest.raises(ValueError):
            classify.decide(traj, T_star=100.0, band=0.1)

    def test_one_row_rejected(self):
        # a zero horizon records one row: no step to size the window with
        traj = synthetic_traj([lambda t: 0.0 * t], [lambda t: 1.5 + 0.0 * t], horizon=0.0)
        assert len(traj.times) == 1
        with pytest.raises(ValueError, match="two recorded rows"):
            classify.decide(traj, T_star=1.0, band=0.1)
