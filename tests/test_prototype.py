import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasig import prototype, signals

LINEAR = signals.builtin_class("linear", (1.0, 2.0))
FAMILIES = ["linear", "sine", "quadratic-affine"]


def make_config(**kw):
    base = dict(gamma=0.05, a=0.5, b=2.5, epsilon=0.0, delta=0.0)
    base.update(kw)
    return prototype.PrototypeConfig(**base)


class TestThetaHat:
    def test_endpoints(self):
        assert prototype.theta_hat(-1.0, 0.5, 2.5) == 0.5
        assert prototype.theta_hat(1.0, 0.5, 2.5) == 2.5

    def test_midpoint(self):
        assert prototype.theta_hat(0.0, 0.0, 2.0) == 1.0


class TestConfigValidation:
    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            make_config(gamma=0.0)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            make_config(a=2.0, b=1.0)

    def test_rejects_bad_nu_x(self):
        with pytest.raises(ValueError):
            make_config(nu_x=7.0)


def reference_prototype_rhs(state, s, xi_val, clazz, config, phi):
    """The per-subsystem rhs the bank form replaced: one subsystem per call,
    through theta_hat and an elementwise dead zone."""
    shat, x, y = state
    th = prototype.theta_hat(x, config.a, config.b)
    g = config.gamma * (np.maximum(abs(shat - s) - config.epsilon, 0.0) + config.delta)
    r2 = x * x + y * y
    return -phi(shat) + clazz.f(xi_val, th), g * (x - y - x * r2), g * (x + y - y * r2)


def one(clazz, config):
    """A one-subsystem bank whose state is (shat, x, y)."""
    return [prototype.subsystem_constants(clazz, config)]


class TestPrototypeRhs:
    def test_fixed_point_on_circle(self):
        # matched filter, delta=0: g=0, rotator frozen
        cfg = make_config()
        state = np.array([0.7, 1.0, 0.0])
        d = prototype.prototype_rhs(state, 0.7, 0.3, one(LINEAR, cfg), phi=lambda s: s)
        assert d[1] == 0.0 and d[2] == 0.0

    def test_pure_rotation_rate(self):
        # on the circle at (1, 0) with g = gamma*delta: dx=0, dy=g
        cfg = make_config(delta=0.01)
        state = np.array([0.7, 1.0, 0.0])
        d = prototype.prototype_rhs(state, 0.7, 0.3, one(LINEAR, cfg), phi=lambda s: s)
        assert d[1] == pytest.approx(0.0)
        assert d[2] == pytest.approx(cfg.gamma * cfg.delta)

    def test_filter_component(self):
        cfg = make_config()
        state = np.array([0.5, 0.0, 1.0])  # theta_hat = 1.5
        d = prototype.prototype_rhs(state, 0.5, 0.4, one(LINEAR, cfg), phi=lambda s: s)
        assert d[0] == pytest.approx(-0.5 + 1.5 * 0.4)

    def test_deadzone_suppresses_rotation(self):
        cfg = make_config(epsilon=0.2)
        state = np.array([0.6, 1.0, 0.0])  # |shat - s| = 0.1 < epsilon
        d = prototype.prototype_rhs(state, 0.5, 0.0, one(LINEAR, cfg), phi=lambda s: s)
        assert d[1] == 0.0 and d[2] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["linear", "sine", "quadratic-affine"]),
        epsilon=st.sampled_from([0.0, 0.3]),
        delta=st.sampled_from([0.0, 0.01]),
        slope=st.sampled_from([1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_block_matches_single_rows(self, family, epsilon, delta, slope, seed):
        clazz = signals.builtin_class(family, (1.0, 2.0))
        bank = one(clazz, make_config(epsilon=epsilon, delta=delta))
        phi = lambda s: slope * s
        xi_val, s, shat, x, y = np.random.default_rng(seed).uniform(-2.0, 2.0, (5, 64))
        block = prototype.prototype_rhs((shat, x, y), s, xi_val, bank, phi)
        rows = [prototype.prototype_rhs(q, s[k], xi_val[k], bank, phi)
                for k, q in enumerate(zip(shat.tolist(), x.tolist(), y.tolist()))]
        assert np.array_equal(np.stack(block, axis=1), np.array(rows))

    def test_floats_stay_floats(self):
        # a family whose f returns a numpy scalar must not leak it either
        numpy_f = signals.SignalClass(
            name="numpy-scalar", f=lambda xi, th: np.float64(th * xi),
            theta_range=(1.0, 2.0), equivalence=lambda th: [(th, th)],
            lipschitz_theta=1.0, lipschitz_xi=2.0)
        classes = [signals.builtin_class(f, (1.0, 2.0)) for f in FAMILIES] + [numpy_f]
        bank = [prototype.subsystem_constants(c, make_config(epsilon=0.05), 1 + 3 * i)
                for i, c in enumerate(classes)]
        q = [0.3, 0.4, 0.6, -0.8, 0.1, 1.0, 0.0, 0.5, 0.0, -1.0, 0.2, 0.6, 0.8]
        d = prototype.prototype_rhs(q, 0.3, 0.7, bank, lambda s: 2.0 * s)
        assert len(d) == 12 and all(type(v) is float for v in d)


class TestBankMatchesPerSubsystemReference:
    """One bank call equals the per-subsystem calls, entry by entry, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        subsystems=st.lists(
            st.tuples(st.sampled_from(FAMILIES), st.sampled_from([0.0, 0.3]),
                      st.sampled_from([0.0, 0.01]), st.floats(0.01, 2.0),
                      st.floats(0.5, 1.5), st.floats(0.1, 2.0)),
            min_size=1, max_size=4),
        rows=st.sampled_from([None, 1, 17]),
        slope=st.sampled_from([1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_reference(self, subsystems, rows, slope, seed):
        rng = np.random.default_rng(seed)
        phi = lambda s: slope * s
        m = len(subsystems)
        size = () if rows is None else (rows,)
        # Entries sit at offsets 1, 4, ... behind s, as in the integrator.
        xi_val, s = rng.uniform(-2.0, 2.0, (2, *size))
        q = rng.uniform(-2.0, 2.0, (1 + 3 * m, *size))
        if rows is None:
            xi_val, s, q = float(xi_val), float(s), q.tolist()
        bank, ref = [], []
        for i, (family, epsilon, delta, gamma, a, span) in enumerate(subsystems):
            clazz = signals.builtin_class(family, (1.0, 2.0))
            cfg = make_config(gamma=gamma, epsilon=epsilon, delta=delta, a=a, b=a + span)
            bank.append(prototype.subsystem_constants(clazz, cfg, 1 + 3 * i))
            ref += reference_prototype_rhs(q[1 + 3 * i : 4 + 3 * i], s, xi_val, clazz, cfg, phi)
        out = prototype.prototype_rhs(q, s, xi_val, bank, phi)
        assert len(out) == 3 * m
        assert np.array_equal(np.array(out), np.array(ref))
        if rows is None:
            assert all(type(v) is float for v in out)


def polar_rates(x, y, g):
    """The rotator's exact polar form (dr/dt, dnu/dt) = (g r (1 - r^2), g):
    a cubic radial term whose attracting invariant set for r > 0 is the
    unit circle."""
    r = math.hypot(x, y)
    return g * r * (1.0 - r * r), g


def rotator_polar(x, y, g):
    """(dr/dt, dnu/dt) of prototype_rhs's rotator at (x, y) with gain g,
    from dr = (x dx + y dy)/r and dnu = (x dy - y dx)/r^2. The gain is
    realized as gamma |shat - s| with gamma = 1, shat = g and s = 0."""
    bank = one(LINEAR, make_config(gamma=1.0))
    _, dx, dy = prototype.prototype_rhs([g, x, y], 0.0, 0.3, bank, phi=lambda s: s)
    r = math.hypot(x, y)
    return (x * dx + y * dy) / r, (x * dy - y * dx) / (r * r)


class TestPolarRates:
    def test_invariant_circle(self):
        dr, dnu = rotator_polar(0.6, 0.8, 3.0)
        assert dr == pytest.approx(0.0, abs=1e-12)
        assert dnu == pytest.approx(3.0, rel=1e-12)

    def test_zero_gain(self):
        assert rotator_polar(0.3, 0.4, 0.0) == (0.0, 0.0)

    def test_matches_cartesian_transform(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            x, y = rng.uniform(-2, 2, 2)
            if math.hypot(x, y) < 1e-3:
                continue
            g = float(rng.uniform(0.0, 1.0))
            dr_c, dnu_c = rotator_polar(x, y, g)
            dr_p, dnu_p = polar_rates(x, y, g)
            worst = max(worst, abs(dr_c - dr_p), abs(dnu_c - dnu_p))
        assert worst < 1e-12


class TestTuning:
    def test_compute_c_examples(self):
        assert prototype.compute_c(2.0, 0.5, 0.0, 3.0) == pytest.approx(6.0)
        assert prototype.compute_c(0.0, 1.0, 0.0, 1.0) == 0.0
        assert prototype.compute_c(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_tune_gamma_frozen_value(self):
        gs, g = prototype.tune_gamma(2.0, 0.5, 1.0, 1.0)
        assert gs == pytest.approx(0.06011229337037348, abs=1e-9)
        assert g == pytest.approx(0.5 * gs)

    def test_tune_gamma_scalings(self):
        gs1, _ = prototype.tune_gamma(2.0, 0.5, 1.0, 1.0)
        gs2, _ = prototype.tune_gamma(2.0, 0.5, 1.0, 2.0)
        gs3, _ = prototype.tune_gamma(2.0, 0.5, 2.0, 1.0)
        assert gs2 == pytest.approx(2.0 * gs1)
        assert gs3 == pytest.approx(0.5 * gs1)

    def test_tune_gamma_degenerate_family(self):
        with pytest.warns(UserWarning):
            gs, g = prototype.tune_gamma(2.0, 0.5, 0.0, 1.0)
        assert gs == math.inf and g == math.inf

    def test_tune_hstar_frozen_value(self):
        h = prototype.tune_hstar(0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.06, 2.0, 0.5, 0.5)
        assert h == pytest.approx(0.6641805641969919, abs=1e-9)

    def test_tune_hstar_vanishes_with_gamma(self):
        h = prototype.tune_hstar(0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1e-9, 2.0, 0.5, 0.5)
        assert h == pytest.approx(0.0, abs=1e-6)

    def test_tune_hstar_infeasible(self):
        # at the admissible supremum the denominator hits zero
        gs, _ = prototype.tune_gamma(2.0, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            prototype.tune_hstar(0.0, 1.0, 1.0, 0.0, 1.0, 1.0, gs * 1.01, 2.0, 0.5, 0.5)

    def test_choose_winding(self):
        assert prototype.choose_winding(0.664, 0.0) == 1
        assert prototype.choose_winding(0.0, 0.0) == 0
        assert prototype.choose_winding(10.0, math.pi) == 3

    @given(st.floats(0, 100), st.floats(0, 2 * math.pi))
    def test_choose_winding_is_minimal(self, h_star, nu_x):
        k = prototype.choose_winding(h_star, nu_x)
        assert 2 * math.pi * k - nu_x >= h_star - 1e-9
        if k > 0:
            assert 2 * math.pi * (k - 1) - nu_x < h_star

    def test_compute_L_branches(self):
        assert prototype.compute_L(math.pi, 0.2, 0.4) == pytest.approx(2 * math.pi)
        assert prototype.compute_L(0.1, 10.0, 1.0) == pytest.approx(10.0)
        assert prototype.compute_L(1.0, 2.0, 1.0) == pytest.approx(2.0)

    def test_compute_L_degenerate(self):
        with pytest.raises(ValueError):
            prototype.compute_L(1.0, 1.0, 0.0)

    def test_error_bound_frozen_value(self):
        # rho(s) = 0.1 s => inverse(u) = 10 u
        val = prototype.error_bound(1e-4, 1.0, 0.0, 1.0, 1.0, 2 * math.pi, lambda u: 10 * u)
        expect = 10.0 * (8e-4 * (2 * math.pi) ** 2) ** 0.25
        assert val == pytest.approx(expect, abs=1e-9)
        assert val == pytest.approx(4.216, abs=1e-3)

    def test_error_bound_zero_noise(self):
        assert prototype.error_bound(0.0, 1.0, 0.0, 1.0, 1.0, 1.0, lambda u: 10 * u) == 0.0

    def test_error_bound_monotone_in_noise(self):
        vals = [
            prototype.error_bound(d, 1.0, 0.0, 1.0, 1.0, 1.0, lambda u: 10 * u)
            for d in [1e-6, 1e-4, 1e-2]
        ]
        assert vals[0] < vals[1] < vals[2]


class TestInitState:
    def test_phase_zero(self):
        assert prototype.init_state(make_config(nu_x=0.0), 0.5) == (0.5, 1.0, 0.0)

    def test_phase_quarter(self):
        _, x, y = prototype.init_state(make_config(nu_x=math.pi / 2), 0.5)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(1.0)

    @given(st.floats(0, 2 * math.pi))
    def test_on_unit_circle(self, nu):
        _, x, y = prototype.init_state(make_config(nu_x=nu), 0.0)
        assert x**2 + y**2 == pytest.approx(1.0)
