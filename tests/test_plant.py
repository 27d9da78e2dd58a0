import numpy as np
import pytest

from adasig import integrator, plant, signals


def make_spec(noise_bound=0.0):
    return plant.PlantSpec(
        phi=lambda s: s,
        phi_min=1.0,
        s0_range=(0.0, 1.0),
        noise_bound=noise_bound,
    )


LINEAR = signals.builtin_class("linear", (1.0, 2.0))
SIN = signals.sin_input()


class TestPlantSpec:
    def test_bad_slopes_rejected(self):
        with pytest.raises(ValueError):
            plant.PlantSpec(phi=lambda s: s, phi_min=0.0)

    def test_negative_noise_bound_rejected(self):
        with pytest.raises(ValueError):
            make_spec(noise_bound=-0.1)


class TestPlantRhs:
    def test_value(self):
        spec = make_spec()
        # at t = pi/2: xi = 1, drive = theta, rhs = -s + theta
        got = plant.plant_rhs(0.5, float(SIN.xi(np.pi / 2)), LINEAR, 1.5, spec)
        assert got == pytest.approx(-0.5 + 1.5)

    def test_noise_enters_additively(self):
        spec = make_spec()
        xi = float(SIN.xi(0.3))
        base = plant.plant_rhs(0.5, xi, LINEAR, 1.5, spec)
        assert plant.plant_rhs(0.5, xi, LINEAR, 1.5, spec, eta=0.2) == pytest.approx(base + 0.2)


class TestMakeNoise:
    def test_zero_bound_gives_zeros(self):
        assert not plant.make_noise(make_spec(), 100, seed=3).any()

    def test_respects_bound_and_seed(self):
        spec = make_spec(noise_bound=0.5)
        a = plant.make_noise(spec, 1000, seed=7)
        b = plant.make_noise(spec, 1000, seed=7)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a)) <= 0.5


class TestSimulateMeasurement:
    """Plant-only runs: integrate_system with an empty bank."""

    def test_s0_outside_range_rejected(self):
        with pytest.raises(ValueError):
            integrator.integrate_system(make_spec(), LINEAR, 1.5, [], SIN, s0=5.0)

    def test_matches_closed_form(self):
        # s' = -s + 1.0*sin(t), s(0)=0 -> s = (sin t - cos t + e^{-t})/2
        spec = make_spec()
        traj = integrator.integrate_system(spec, LINEAR, 1.0, [], SIN, s0=0.0, horizon=5.0,
                                           dt=1e-3, record_every=1)
        t = traj.times
        exact = 0.5 * (np.sin(t) - np.cos(t) + np.exp(-t))
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-9

    def test_contraction_envelope(self):
        spec = make_spec()
        kw = dict(horizon=10.0, dt=1e-3, record_every=1)
        t1 = integrator.integrate_system(spec, LINEAR, 1.5, [], SIN, s0=0.0, **kw)
        t2 = integrator.integrate_system(spec, LINEAR, 1.5, [], SIN, s0=1.0, **kw)
        gap = np.abs(t1.states[:, 0] - t2.states[:, 0])
        envelope = 1.0 * np.exp(-spec.phi_min * t1.times)
        assert np.all(gap <= envelope + 1e-6)

    def test_record_every(self):
        spec = make_spec()
        traj = integrator.integrate_system(
            spec, LINEAR, 1.5, [], SIN, s0=0.5, horizon=1.0, dt=0.01, record_every=10
        )
        assert len(traj.times) == 11
        assert traj.times[1] - traj.times[0] == pytest.approx(0.1)
