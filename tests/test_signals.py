import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adasig import prototype, signals


def deadzone(e, epsilon):
    """The dead zone max(|e| - epsilon, 0) as prototype_rhs applies it: the
    rotator speed dy/dt at (x, y) = (1, 0) with gamma = 1, delta = 0,
    shat = e and s = xi = 0. An array e is one row block for the same kernel."""
    config = prototype.PrototypeConfig(gamma=1.0, a=0.5, b=2.5, epsilon=epsilon)
    bank = [(signals.builtin_class("linear"), config)]
    if isinstance(e, np.ndarray):
        zeros = np.zeros_like(e)
        q, s = (zeros, e, zeros + 1.0, zeros), zeros
    else:
        q, s = [0.0, e, 1.0, 0.0], 0.0
    kernel = prototype.bank_kernel(bank, 1.0)
    return prototype.prototype_rhs(q, s, s, kernel)[2]


class TestDeadzoneNorm:
    """The dead zone of the rotator gain, written out in prototype_rhs."""

    def test_inside_zone_is_zero(self):
        assert deadzone(0.05, 0.1) == 0.0
        assert deadzone(-0.05, 0.1) == 0.0

    def test_outside_zone(self):
        assert deadzone(0.3, 0.1) == pytest.approx(0.2)
        assert deadzone(-0.3, 0.1) == pytest.approx(0.2)

    def test_zero_width_is_abs(self):
        assert deadzone(-2.5, 0.0) == 2.5

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            deadzone(1.0, -0.1)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0, 1e3))
    def test_one_lipschitz(self, x, y, delta):
        dx = deadzone(x, delta)
        dy = deadzone(y, delta)
        assert abs(dx - dy) <= abs(x - y) + 1e-9

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e3))
    def test_bounded_by_abs(self, x, delta):
        assert 0.0 <= deadzone(x, delta) <= abs(x)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20), st.floats(0, 1e3))
    def test_elementwise_matches_scalar(self, xs, delta):
        expect = [deadzone(x, delta) for x in xs]
        assert np.array_equal(deadzone(np.array(xs), delta), expect)

    def test_scalar_result_is_float(self):
        assert type(deadzone(-0.05, 0.1)) is float
        assert isinstance(deadzone(np.ones(3), 0.1), np.ndarray)


class TestBuiltinFamilies:
    def test_linear_values(self):
        c = signals.builtin_class("linear", (1.0, 2.0))
        assert c.f(0.5, 2.0) == pytest.approx(1.0)

    def test_sine_values(self):
        c = signals.builtin_class("sine", (1.0, 2.0))
        assert float(c.f(1.0, math.pi / 2)) == pytest.approx(1.0)

    def test_quadratic_affine_values(self):
        c = signals.builtin_class("quadratic-affine", (0.5, 2.0))
        assert c.f(1.0, 2.0) == pytest.approx(6.0)
        assert c.f(2.0, 0.5) == pytest.approx(1.0)

    def test_quadratic_affine_range_restriction(self):
        with pytest.raises(ValueError):
            signals.builtin_class("quadratic-affine", (0.1, 2.0))

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            signals.builtin_class("cubic")


class TestFloatSine:
    """The sine of sin_input and the sine family: math.sin on a Python float,
    np.sin on anything else, with the same bits."""

    SINES = [signals.sin_input().xi,
             lambda v: signals.builtin_class("sine", (1.0, 2.0)).f(v, 1.0)]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_floats_match_np_sin_on_arrays(self, xs):
        for sin in self.SINES:
            out = [sin(v) for v in xs]
            assert all(type(v) is float for v in out)
            assert np.array_equal(out, sin(np.array(xs)))
            assert np.array_equal(sin(np.array(xs)), np.sin(np.array(xs)))

    def test_wide_sample_matches_np_sin(self):
        xs = np.random.default_rng(0).uniform(-1e3, 1e3, 100_000)
        assert np.array_equal([signals.sin_input().xi(v) for v in xs.tolist()], np.sin(xs))

    @pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
    def test_inf_and_nan_give_nan(self, v):
        for sin in self.SINES:
            out = sin(v)
            assert type(out) is float and math.isnan(out)

    def test_numpy_scalar_stays_numpy(self):
        assert type(signals.sin_input().xi(np.float64(0.5))) is np.float64


class TestPersistency:
    def test_linear_family_sin_input(self):
        # |dtheta * sin t| peaks at dtheta in every window of length 2*pi
        c = signals.builtin_class("linear", (1.0, 2.0))
        [(sep, dev)] = signals.persistency_envelope(
            c, signals.sin_input(), 1.2, [0.3], 2 * math.pi, 40.0, dt=1e-3
        )
        assert sep == pytest.approx(0.3)
        assert dev == pytest.approx(0.3, rel=1e-3)

    def test_envelope_monotone_after_regularization(self):
        c = signals.builtin_class("linear", (1.0, 2.0))
        samples = signals.persistency_envelope(
            c, signals.sin_input(), 1.0, [0.1, 0.2, 0.4], 2 * math.pi, 40.0, dt=1e-2
        )
        rho = signals.RhoEnvelope(samples, reach=0.4)
        vals = [rho(s) for s in [0.05, 0.1, 0.2, 0.4]]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_degenerate_input_envelope_vanishes(self):
        c = signals.builtin_class("linear", (1.0, 2.0))
        [(_, dev)] = signals.persistency_envelope(
            c, signals.degenerate_xi(), 1.0, [1.0], 2 * math.pi, 600.0, dt=1e-2
        )
        assert dev == 0.0

    @staticmethod
    def window_loop(clazz, inp, theta_ref, sep, window_T, horizon, dt):
        """The worst-window gap with the windows taken one at a time."""
        t = np.arange(0.0, horizon + dt / 2, dt)
        xi = inp.xi(t)
        gap = np.abs(clazz.f(xi, theta_ref + sep) - clazz.f(xi, theta_ref))
        per_win = int(round(window_T / dt))
        return min(float(np.max(gap[k * per_win : (k + 1) * per_win]))
                   for k in range(len(t) // per_win))

    @pytest.mark.parametrize("family", sorted(signals.BUILTIN_FAMILIES))
    @pytest.mark.parametrize("make_input", [signals.sin_input, signals.degenerate_xi],
                             ids=["sin", "degenerate"])
    def test_matches_window_loop_reference(self, family, make_input):
        clazz = signals.builtin_class(family, (1.0, 2.0))
        inp = make_input()
        calls = []
        counted = signals.InputSignal(xi=lambda t: calls.append(t) or inp.xi(t),
                                      xi_sup=inp.xi_sup, dxi_sup=inp.dxi_sup)
        seps = [-0.3, 0.125, 0.5, 1.0]
        args = (2 * math.pi, 300.0, 1e-2)
        samples = signals.persistency_envelope(clazz, counted, 1.0, seps, *args)
        assert len(calls) == 1  # xi is sampled once for every separation
        assert samples == [(abs(1.0 + sep - 1.0), self.window_loop(clazz, inp, 1.0, sep, *args))
                           for sep in seps]

    def test_reach_bounds_the_silent_range(self):
        # the last sample's distance rounded below the requested 0.2
        rho = signals.RhoEnvelope([(0.1, 0.05), (0.19999999999999996, 0.11)], reach=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rho(0.2) == 0.11
        with pytest.warns(UserWarning, match="beyond the certified separation range"):
            rho(0.2 * 1.01)

    def test_samples_kept_sorted_before_regularization(self):
        rho = signals.RhoEnvelope([(0.2, 0.05), (0.1, 0.07)], reach=0.2)
        assert rho.samples == [(0.1, 0.07), (0.2, 0.05)]
        assert rho.devs.tolist() == [0.0, 0.07, 0.07]

    def test_rho_inverse_roundtrip(self):
        rho = signals.RhoEnvelope([(0.1, 0.05), (0.2, 0.11), (0.4, 0.3)], reach=0.4)
        for v in [0.02, 0.08, 0.25]:
            assert rho(rho.inverse(v)) == pytest.approx(v, abs=1e-12)

    def test_rho_inverse_extrapolation_warns(self):
        rho = signals.RhoEnvelope([(0.1, 0.05), (0.2, 0.11)], reach=0.2)
        with pytest.warns(UserWarning):
            out = rho.inverse(1.0)
        assert out > 0.2


class TestLipschitz:
    @pytest.mark.parametrize("family", sorted(signals.BUILTIN_FAMILIES))
    def test_declared_constants_bound_grid_slopes(self, family):
        """Finite differences of f on a grid of theta_range x [-xi_sup, xi_sup]
        stay below the declared lipschitz_theta and lipschitz_xi."""
        c = signals.builtin_class(family, (1.0, 2.0))
        tg, xg = np.linspace(1.0, 2.0, 41), np.linspace(-1.0, 1.0, 41)
        F = c.f(xg[None, :], tg[:, None])
        d_theta = np.max(np.abs(np.diff(F, axis=0)) / np.diff(tg)[:, None])
        d_xi = np.max(np.abs(np.diff(F, axis=1)) / np.diff(xg)[None, :])
        assert d_theta <= c.lipschitz_theta + 1e-9
        assert d_xi <= c.lipschitz_xi + 1e-9

    def test_d_f_composition(self):
        """D_f = 2 lipschitz_xi dxi_sup bounds the slope of the difference
        signal f(xi(t), theta) - f(xi(t), theta') over theta_range."""
        inp, dt = signals.sin_input(), 1e-3
        t = np.arange(0.0, 4 * math.pi, dt)
        for family in signals.BUILTIN_FAMILIES:
            c = signals.builtin_class(family, (1.0, 2.0))
            d_f = 2.0 * c.lipschitz_xi * inp.dxi_sup
            for theta, theta_prime in [(1.0, 2.0), (1.3, 1.9)]:
                diff = c.f(inp.xi(t), theta) - c.f(inp.xi(t), theta_prime)
                assert np.max(np.abs(np.diff(diff))) / dt <= d_f
