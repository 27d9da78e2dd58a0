import math
import warnings

import numpy as np
import pytest

from adasig import analysis, integrator, plant, prototype, signals

LINEAR = signals.builtin_class("linear", (1.0, 2.0))
SIN = signals.sin_input()


def make_spec():
    return plant.PlantSpec(phi=lambda s: s, phi_min=1.0, s0_range=(0.0, 1.0))


def sim(cfg, theta=1.5, horizon=20.0, dt=1e-2):
    return integrator.integrate_system(
        make_spec(), LINEAR, theta, [(LINEAR, cfg)], SIN, horizon=horizon, dt=dt
    )


class TestVerifyFilteredPE:
    def setup_method(self):
        self.dt = 1e-3
        self.t = np.arange(0.0, 16 * np.pi, self.dt)
        self.u = np.sin(self.t)
        # steady-state filtered response of z' = -z + sin t
        self.z = 0.5 * (np.sin(self.t) - np.cos(self.t))

    def test_drive_floor_is_four(self):
        rep = analysis.verify_filtered_pe(self.z, self.u, self.dt, 2 * np.pi, 3.9)
        assert rep.delta_lower == pytest.approx(4.0, rel=1e-4)

    def test_condition_ok_with_zero_deadzone(self):
        rep = analysis.verify_filtered_pe(self.z, self.u, self.dt, 2 * np.pi, 3.9, Delta=0.0)
        assert rep.condition_ok

    def test_filtered_floor_positive(self):
        # windows of length 2*pi integrate |z| to 4/sqrt(2)
        rep = analysis.verify_filtered_pe(self.z, self.u, self.dt, 2 * np.pi, 3.9)
        assert rep.delta_star > 0
        assert rep.L_star >= 2 * np.pi - 1e-9
        ints = analysis._window_integrals(self.z, self.dt, 2 * np.pi)
        assert float(np.min(ints)) == pytest.approx(4 / np.sqrt(2), rel=1e-3)
        assert rep.p > 0 and math.isfinite(rep.p)

    def test_large_deadzone_breaks_condition(self):
        delta, L = 3.9, 2 * np.pi
        Delta = (delta / L) ** 2 / 1.0 * 1.5  # pushes the margin negative
        rep = analysis.verify_filtered_pe(self.z, self.u, self.dt, L, delta, Delta=Delta)
        assert not rep.condition_ok
        assert not rep.ok

    def test_violated_drive_floor_raises(self):
        with pytest.raises(ValueError):
            analysis.verify_filtered_pe(self.z, self.u, self.dt, 2 * np.pi, 5.0)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            analysis.verify_filtered_pe(self.z[:-1], self.u, self.dt, 2 * np.pi, 3.9)


def spent(traj, cfg):
    return analysis.convergence_report(traj, LINEAR, 1.5, 0.01, cfg).winding_spent


def reference_spent(traj, cfg):
    """gamma times the trapezoidal integral of the dead-zone mismatch, with
    the dead zone taken one sample at a time."""
    e = [np.maximum(abs(a - b) - cfg.epsilon, 0.0)
         for a, b in zip(traj.column("shat_1"), traj.column("s"))]
    return cfg.gamma * float(np.trapezoid(e, traj.times))


class TestWindingBudget:
    """An unperturbed admissible run spends at most pi - nu_x + 2 pi k'."""

    def test_budget_value(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5, nu_x=0.0, k_prime=1)
        budget = math.pi - cfg.nu_x + 2.0 * math.pi * cfg.k_prime
        assert 0.0 < spent(sim(cfg, horizon=20.0), cfg) <= budget

    def test_zero_error_run_spends_nothing(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=1.5, nu_x=0.0, k_prime=1)
        traj = sim(cfg, theta=1.5, horizon=5.0)  # matched from t=0
        assert spent(traj, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_spent_nondecreasing_in_horizon(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5, k_prime=1)
        spents = [spent(sim(cfg, horizon=h), cfg) for h in (5.0, 10.0)]
        assert spents[0] <= spents[1] + 1e-12


class TestConvergenceReport:
    def test_winding_spent_matches_budget_unperturbed(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5, epsilon=0.01, k_prime=1)
        traj = sim(cfg, horizon=10.0)
        rep = analysis.convergence_report(traj, LINEAR, 1.5, 0.01, cfg)
        assert rep.winding_spent == reference_spent(traj, cfg) > 0

    def test_perturbed_run_reports_spent_without_warning(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5, delta=0.01, k_prime=1)
        traj = sim(cfg, horizon=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = analysis.convergence_report(traj, LINEAR, 1.5, 0.01, cfg)
        assert rep.winding_spent == reference_spent(traj, cfg)

    def test_matched_start_enters_at_t0(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=1.5)
        traj = sim(cfg, theta=1.5, horizon=5.0)
        rep = analysis.convergence_report(traj, LINEAR, 1.5, 0.01, cfg)
        assert rep.entered and rep.entry_time == traj.times[0]
        assert rep.residence == pytest.approx(traj.times[-1] - traj.times[0])

    def test_never_entering_marked(self):
        cfg = prototype.PrototypeConfig(gamma=1e-6, a=0.5, b=2.5)  # barely rotates
        traj = sim(cfg, theta=1.01, horizon=2.0)
        rep = analysis.convergence_report(traj, LINEAR, 1.01, 1e-6, cfg)
        assert not rep.entered and rep.entry_time is None

    def test_bad_bound_rejected(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5)
        with pytest.raises(ValueError):
            analysis.convergence_report(sim(cfg, horizon=1.0), LINEAR, 1.5, 0.0, cfg)
