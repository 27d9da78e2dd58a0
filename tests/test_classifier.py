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
    states = np.zeros((n, 1 + 3 * m))
    reads = np.zeros((n, 2 * m))
    for i in range(m):
        reads[:, 2 * i] = theta_hats[i](t)
        reads[:, 2 * i + 1] = hf_funcs[i](t)
        states[:, 1 + 3 * i] = -reads[:, 2 * i + 1]  # shat = s - hf, s = 0
    columns = ["s"] + [f"{n}_{i+1}" for i in range(m) for n in ("shat", "x", "y")]
    rcols = [f"{n}_{i+1}" for i in range(m) for n in ("theta_hat", "hf")]
    return integrator.Trajectory(t, states, columns, reads, rcols, {"dt": dt})


def first_readouts(cfg, init, s0=0.0):
    """(theta_hat_1, hf_1) recorded at t0 for one subsystem started at init."""
    clazz = signals.builtin_class("linear", (1.0, 2.0))
    spec = plant.PlantSpec(phi=lambda s: s, s0_range=(0.0, 1.0))
    traj = integrator.integrate_system(
        spec, clazz, 1.5, [(clazz, cfg)], signals.sin_input(), horizon=0.0,
        s0=s0, init_states=[np.asarray(init, dtype=float)],
    )
    return traj.readouts[0]


class TestReadout:
    """Read-outs are computed by integrate_system from the stacked states."""

    def test_matched_filter_zero(self):
        cfg = make_config()
        _, hf = first_readouts(cfg, [0.7, 0.0, 1.0], s0=0.7)
        assert hf == 0.0

    def test_theta_readback_endpoints(self):
        cfg = make_config()
        ht, _ = first_readouts(cfg, [0.0, -1.0, 0.0])
        assert ht == cfg.a
        ht, _ = first_readouts(cfg, [0.0, 1.0, 0.0])
        assert ht == cfg.b

    def test_midpoint(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.0, b=2.0)
        ht, _ = first_readouts(cfg, [0.0, 0.0, 0.0])
        assert ht == 1.0

    def test_length_check(self):
        with pytest.raises(ValueError):
            integrator.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 4)),
                                  ["s", "shat_1", "x_1", "y_1"], np.zeros((3, 2)))

    def test_memoryless_recomputation_matches_stored(self):
        cfg = make_config(delta=0.01)
        clazz = signals.builtin_class("linear", (1.0, 2.0))
        spec = plant.PlantSpec(phi=lambda s: s, s0_range=(0.0, 1.0))
        traj = integrator.integrate_system(
            spec, clazz, 1.5, [(clazz, cfg)], signals.sin_input(), horizon=1.0, dt=1e-2
        )
        for k in range(0, len(traj.times), 3):
            s, shat, x = traj.states[k, :3]
            assert s - shat == traj.readouts[k, 1]
            assert prototype.theta_hat(x, cfg.a, cfg.b) == traj.readouts[k, 0]


class TestBandFromNoise:
    def test_zero_noise(self):
        assert classify.band_from_noise(0.0, 1.0) == 0.0

    def test_hf_component(self):
        assert classify.band_from_noise(1e-4, 1.0) == pytest.approx(1e-4)
        assert classify.band_from_noise(1e-4, 2.0) == pytest.approx(5e-5)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            classify.band_from_noise(-1e-4, 1.0)
        with pytest.raises(ValueError):
            classify.band_from_noise(1e-4, 0.0)


class TestDecide:
    def test_single_clear_winner(self):
        traj = synthetic_traj(
            [lambda t: 0.0 * t, lambda t: 1.0 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, eps=0.1)
        assert rep.status == "decided" and rep.decided == 0
        assert rep.theta_estimate == pytest.approx(1.5)
        assert rep.t_prime == traj.times[0]

    def test_all_out_of_band_undecided(self):
        traj = synthetic_traj(
            [lambda t: 1.0 + 0.0 * t, lambda t: 1.0 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, eps=0.1)
        assert rep.status == "undecided"
        assert rep.decided is None and rep.theta_estimate is None

    def test_two_qualifying_is_ambiguous(self):
        traj = synthetic_traj(
            [lambda t: 0.0 * t, lambda t: 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, eps=0.1)
        assert rep.status == "ambiguous"

    def test_earliest_window_chosen(self):
        # class 0 qualifies only after t = 5
        traj = synthetic_traj(
            [lambda t: np.where(t < 5.0, 1.0, 0.0), lambda t: 1.0 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, eps=0.1)
        assert rep.status == "decided"
        assert rep.t_prime == pytest.approx(5.0)

    def test_settle_time_limits_search(self):
        traj = synthetic_traj(
            [lambda t: np.where(t < 5.0, 1.0, 0.0)],
            [lambda t: 1.5 + 0.0 * t],
        )
        rep = classify.decide(traj, T_star=1.0, eps=0.1, settle=2.0)
        assert rep.status == "undecided"

    def test_monotone_in_band(self):
        traj = synthetic_traj(
            [lambda t: 0.05 + 0.0 * t, lambda t: 0.5 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t, lambda t: 2.0 + 0.0 * t],
        )
        small = classify.decide(traj, T_star=1.0, eps=0.1)
        grown = classify.decide(traj, T_star=1.0, eps=0.3)
        assert small.status == "decided"
        assert grown.status in ("decided", "ambiguous")  # never undecided

    def test_noise_widens_band(self):
        traj = synthetic_traj(
            [lambda t: 0.12 + 0.0 * t],
            [lambda t: 1.5 + 0.0 * t],
        )
        assert classify.decide(traj, T_star=1.0, eps=0.1).status == "undecided"
        assert classify.decide(traj, T_star=1.0, eps=0.1, D_of_noise=0.05).status == "decided"

    def test_window_longer_than_horizon_rejected(self):
        traj = synthetic_traj([lambda t: 0.0 * t], [lambda t: 1.5 + 0.0 * t])
        with pytest.raises(ValueError):
            classify.decide(traj, T_star=100.0, eps=0.1)
