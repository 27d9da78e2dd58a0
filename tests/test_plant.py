import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adasig import integrator, plant, signals


def make_spec(noise_bound=0.0):
    return plant.PlantSpec(
        phi_min=1.0,
        s0_range=(0.0, 1.0),
        noise_bound=noise_bound,
    )


LINEAR = signals.builtin_class("linear", (1.0, 2.0))
SIN = signals.sin_input()


class TestPlantSpec:
    def test_bad_slopes_rejected(self):
        with pytest.raises(ValueError):
            plant.PlantSpec(phi_min=0.0)

    def test_negative_noise_bound_rejected(self):
        with pytest.raises(ValueError):
            make_spec(noise_bound=-0.1)

    def test_inverted_s0_range_rejected_by_name(self):
        """A spec built directly rejects lo > hi, as load_config does, instead
        of integrate_system blaming the default s0 later."""
        with pytest.raises(ValueError, match=r"^s0_range must be an interval with lo <= hi"):
            plant.PlantSpec(s0_range=(1.0, 0.0))
        assert plant.PlantSpec(s0_range=(0.5, 0.5)).s0_range == (0.5, 0.5)

    @pytest.mark.parametrize("field", ["phi_min", "noise_bound", "s0_range"])
    def test_fields_cannot_be_assigned(self, field):
        """A field passes the checks only through the constructor."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(make_spec(), field, -1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["phi_min", "noise_bound", "s0_range"])
    def test_non_finite_rejected_by_name(self, field, value):
        """A spec built directly rejects what load_config rejects: a
        non-finite slope, noise bound or initial interval end."""
        kwargs = {field: (0.0, value) if field == "s0_range" else value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            plant.PlantSpec(**kwargs)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestRadius:
    """PlantSpec.radius(sup) = (sup + noise_bound)/phi_min, the filter's
    settling radius; radius() is the noise band Delta = noise_bound/phi_min."""

    def test_zero_noise(self):
        assert make_spec().radius() == 0.0

    def test_noise_band(self):
        assert plant.PlantSpec(noise_bound=1e-4).radius() == pytest.approx(1e-4)
        assert plant.PlantSpec(phi_min=2.0, noise_bound=1e-4).radius() == pytest.approx(5e-5)

    @given(phi_min=st.floats(min_value=1e-300, max_value=1e300),
           noise_bound=st.floats(min_value=0.0, max_value=1e300), sup=FINITE)
    def test_formula_bit_for_bit(self, phi_min, noise_bound, sup):
        spec = plant.PlantSpec(phi_min=phi_min, noise_bound=noise_bound)
        assert bits(spec.radius(sup)) == bits((sup + noise_bound) / phi_min)
        assert bits(spec.radius()) == bits(noise_bound / phi_min)


def plant_derivative(spec, theta, s, t, seed=0):
    """The plant's derivative at (s, t) as integrate_system's stage function
    writes it out, with eta = make_noise(spec, 1, seed)[0] of the first step."""
    seen = []

    def step(rhs, state, t_step, dt):
        seen.append(rhs([s], t)[0])
        return list(state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "rk4_step", step)
        integrator.integrate_system(spec, LINEAR, theta, [], SIN, horizon=1e-3, dt=1e-3,
                                    seed=seed)
    [value] = seen
    return value


class TestPlantRhs:
    def test_value(self):
        spec = make_spec()
        # at t = pi/2: xi = 1, drive = theta, rhs = -s + theta
        got = plant_derivative(spec, 1.5, 0.5, np.pi / 2)
        assert got == pytest.approx(-0.5 + 1.5)

    def test_noise_enters_additively(self):
        base = plant_derivative(make_spec(), 1.5, 0.5, 0.3)
        noisy = make_spec(noise_bound=0.5)
        [eta] = plant.make_noise(noisy, 1, seed=3)
        assert eta != 0.0
        assert plant_derivative(noisy, 1.5, 0.5, 0.3, seed=3) == pytest.approx(base + eta)


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
