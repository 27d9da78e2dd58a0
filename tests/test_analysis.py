import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adasig import analysis, integrator, plant, prototype, signals

LINEAR = signals.builtin_class("linear", (1.0, 2.0))
SIN = signals.sin_input()


def make_spec():
    return plant.PlantSpec(phi_min=1.0, s0_range=(0.0, 1.0))


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
        rep = analysis.verify_filtered_pe(self.z, self.u, self.dt, 2 * np.pi)
        assert rep.delta_lower == pytest.approx(4.0, rel=1e-4)

    def test_condition_ok_with_zero_deadzone(self):
        rep = analysis.verify_filtered_pe(self.z, self.u, self.dt, 2 * np.pi, Delta=0.0)
        assert rep.condition_ok

    def test_filtered_floor_positive(self):
        # windows of length 2*pi integrate |z| to 4/sqrt(2)
        rep = analysis.verify_filtered_pe(self.z, self.u, self.dt, 2 * np.pi)
        assert rep.L_window == 2 * np.pi
        assert rep.delta_star == pytest.approx(4 / np.sqrt(2), rel=1e-3)
        assert rep.p > 0 and math.isfinite(rep.p)
        assert rep.ok

    def test_quiet_window_fails(self):
        # z is silent on one window of the drive's length L: its floor on
        # that length is 0, however large its integral over the whole run
        L = 2 * np.pi
        z = self.z.copy()
        z[1000 : 1000 + int(round(L / self.dt)) + 1] = 0.0
        rep = analysis.verify_filtered_pe(z, self.u, self.dt, L)
        assert rep.condition_ok
        assert rep.L_window == L and rep.delta_star == 0.0
        assert not rep.ok

    def test_large_deadzone_breaks_condition(self):
        delta, L = 4.0, 2 * np.pi  # the drive's floor
        Delta = (delta / L) ** 2 / 1.0 * 1.5  # pushes the margin negative
        rep = analysis.verify_filtered_pe(self.z, self.u, self.dt, L, Delta=Delta)
        assert not rep.condition_ok
        assert not rep.ok

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            analysis.verify_filtered_pe(self.z[:-1], self.u, self.dt, 2 * np.pi)


def spent(traj, cfg):
    return analysis.convergence_report(traj, LINEAR, 1.5, 0.01, cfg).winding_spent


def reference_spent(traj, cfg):
    """gamma times the trapezoidal integral of the dead-zone mismatch, with
    the dead zone taken one sample at a time."""
    e = [np.maximum(abs(a - b) - cfg.epsilon, 0.0)
         for a, b in zip(traj.subsystem(0)[:, 0], traj.states[:, 0])]
    return cfg.gamma * float(np.trapezoid(e, traj.times))


class TestWindingBudget:
    """An unperturbed admissible run spends at most pi - nu_x + 2 pi k'."""

    def test_budget_value(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5, nu_x=0.0)
        k_prime = 1
        budget = math.pi - cfg.nu_x + 2.0 * math.pi * k_prime
        assert 0.0 < spent(sim(cfg, horizon=20.0), cfg) <= budget

    def test_zero_error_run_spends_nothing(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=1.5, nu_x=0.0)
        traj = sim(cfg, theta=1.5, horizon=5.0)  # matched from t=0
        assert spent(traj, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_spent_nondecreasing_in_horizon(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5)
        spents = [spent(sim(cfg, horizon=h), cfg) for h in (5.0, 10.0)]
        assert spents[0] <= spents[1] + 1e-12


class TestConvergenceReport:
    def test_winding_spent_matches_budget_unperturbed(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5, epsilon=0.01)
        traj = sim(cfg, horizon=10.0)
        rep = analysis.convergence_report(traj, LINEAR, 1.5, 0.01, cfg)
        assert rep.winding_spent == reference_spent(traj, cfg) > 0

    def test_perturbed_run_reports_spent_without_warning(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5, delta=0.01)
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

    @staticmethod
    def reference_entry_residence(times, theta_hat, theta, bound):
        """Entry time and longest residence, one sample at a time, with the
        distance to the singleton [theta, theta] taken as the interval
        distance max(max(lo - x, x - hi), 0)."""
        dist = np.maximum(np.maximum(theta - theta_hat, theta_hat - theta), 0.0)
        entry, residence, start = None, 0.0, None
        for k, inside in enumerate(dist <= bound):
            if not inside:
                start = None
                continue
            start = k if start is None else start
            entry = float(times[k]) if entry is None else entry
            residence = max(residence, float(times[k] - times[start]))
        return entry, residence

    @staticmethod
    @st.composite
    def estimates(draw):
        """(theta, bound, theta_hat samples), some at 0, -0 and theta +- bound."""
        theta = draw(st.sampled_from([0.0, -0.0, 1.5]) | st.floats(-10, 10))
        bound = draw(st.floats(1e-6, 2.0))
        near = st.sampled_from([theta, theta + bound, theta - bound, 0.0, -0.0])
        xs = draw(st.lists(near | st.floats(-20, 20), min_size=1, max_size=30))
        return theta, bound, xs

    @given(estimates())
    def test_entry_and_residence_match_the_interval_distance(self, case):
        theta, bound, xs = case
        n = len(xs)
        traj = integrator.Trajectory(times=0.5 * np.arange(n), states=np.zeros((n, 4)),
                                     theta_hat=np.array(xs)[:, None], hf=np.zeros((n, 1)))
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5)
        rep = analysis.convergence_report(traj, LINEAR, theta, bound, cfg)
        entry, residence = self.reference_entry_residence(
            traj.times, traj.theta_hat[:, 0], theta, bound)
        assert rep.entry_time == entry and rep.residence == residence

    def test_vacuous_from_the_readback_width(self):
        """A bound that reaches b - a = 2 holds every estimate of [a, b]: the
        record is vacuous at 2 exactly and above, not one ulp below, and the
        flag is a Python bool, which JSON can write."""
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5)
        traj = sim(cfg, horizon=1.0)
        reps = [analysis.convergence_report(traj, LINEAR, 1.5, bound, cfg)
                for bound in (np.nextafter(2.0, 0.0), 2.0, 3.0)]
        assert [rep.vacuous for rep in reps] == [False, True, True]
        assert all(type(rep.vacuous) is bool for rep in reps)

    def test_bad_bound_rejected(self):
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5)
        with pytest.raises(ValueError):
            analysis.convergence_report(sim(cfg, horizon=1.0), LINEAR, 1.5, 0.0, cfg)
