import tracemalloc

import numpy as np
import pytest

from adasig import integrator, plant, prototype, rnn, signals

LINEAR = signals.builtin_class("linear", (1.0, 2.0))
SIN = signals.sin_input()


def make_spec():
    return plant.PlantSpec(phi=lambda s: s, phi_min=1.0, s0_range=(0.0, 1.0))


def make_config(**kw):
    base = dict(gamma=0.05, a=0.5, b=2.5, delta=0.01)
    base.update(kw)
    return prototype.PrototypeConfig(**base)


def small_box():
    return np.array([[-1.2, 1.2], [-2.0, 2.0], [-2.0, 2.0], [-1.2, 1.2], [-1.2, 1.2]])


class TestSampleRhs:
    def test_targets_match_rhs_pointwise(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 200, phi=lambda s: s, seed=1)
        bank = [prototype.subsystem_constants(LINEAR, cfg)]
        for z, y in zip(ds.inputs[:20], ds.targets[:20]):
            direct = prototype.prototype_rhs(z[2:], z[1], z[0], bank, lambda s: s)
            assert np.max(np.abs(direct - y)) < 1e-15

    @pytest.mark.parametrize("family", ["linear", "sine", "quadratic-affine"])
    def test_targets_match_per_row_loop(self, family):
        clazz = signals.builtin_class(family, (1.0, 2.0))
        cfg = make_config(epsilon=0.1)
        phi = lambda s: 2.0 * s
        ds = rnn.sample_rhs(clazz, cfg, small_box(), 500, phi=phi, seed=4)
        bank = [prototype.subsystem_constants(clazz, cfg)]
        ref = np.array([prototype.prototype_rhs(np.array([sh, x, y]), s, xi_val, bank, phi)
                        for xi_val, s, sh, x, y in ds.inputs])
        assert np.array_equal(ds.targets, ref)

    def test_on_circle_matched_targets_vanish(self):
        cfg = make_config(delta=0.0)
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 100, phi=lambda s: s, seed=0)
        # project samples onto the circle with matched filter state
        Z = ds.inputs.copy()
        r = np.hypot(Z[:, 3], Z[:, 4])
        r[r == 0] = 1.0
        Z[:, 3] /= r
        Z[:, 4] /= r
        Z[:, 2] = Z[:, 1]  # shat = s
        Y = ds.target_fn(Z)
        assert np.max(np.abs(Y[:, 1:])) == 0.0

    def test_degenerate_box_rejected(self):
        box = small_box()
        box[2] = [1.0, 1.0]
        with pytest.raises(ValueError):
            rnn.sample_rhs(LINEAR, make_config(), box, 10, phi=lambda s: s)


class TestFitNetwork:
    def test_zero_targets_give_zero_network(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 500, phi=lambda s: s, seed=2)
        ds.targets = np.zeros_like(ds.targets)
        ds.target_fn = lambda Z: np.zeros((len(np.atleast_2d(Z)), 3))
        net, train_error = rnn.fit_network(ds, N=20, ridge=1e-8, seed=0)
        assert np.max(np.abs(net.alpha)) == 0.0
        assert net.eps_N == 0.0 and train_error == 0.0

    def test_determinism(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 500, phi=lambda s: s, seed=2)
        n1, _ = rnn.fit_network(ds, N=30, seed=4)
        n2, _ = rnn.fit_network(ds, N=30, seed=4)
        assert np.array_equal(n1.alpha, n2.alpha)
        assert np.array_equal(n1.omega, n2.omega)

    def test_validation_error_certified(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 2000, phi=lambda s: s, seed=2)
        net, train_error = rnn.fit_network(ds, N=100, seed=0, sigmoid="tanh", n_validation=2000)
        assert np.isfinite(net.eps_N)
        # the training error is the sup over the training rows
        assert train_error == np.max(np.abs(net.features(ds.inputs) @ net.alpha - ds.targets))

    def test_invalid_args(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 10, phi=lambda s: s)
        with pytest.raises(ValueError):
            rnn.fit_network(ds, N=0)
        with pytest.raises(ValueError):
            rnn.fit_network(ds, N=10, ridge=-1.0)


    @pytest.mark.parametrize("sigmoid", ["tanh", "logistic"])
    def test_peak_memory_below_two_feature_matrices(self, sigmoid):
        cfg = make_config()
        n, N = 4000, 64
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), n, phi=lambda s: s, seed=2)
        tracemalloc.start()
        try:
            rnn.fit_network(ds, N=N, seed=0, sigmoid=sigmoid, n_validation=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * N * 8

    @pytest.mark.parametrize("sigmoid", ["tanh", "logistic"])
    def test_blocked_validation_is_sup_over_all_rows(self, sigmoid):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 300, phi=lambda s: s, seed=2)
        # 20,000 rows: two full validation blocks and a partial one
        net, _ = rnn.fit_network(ds, N=20, seed=3, sigmoid=sigmoid, n_validation=20000)
        box = small_box()
        Zv = box[:, 0] + np.random.default_rng(4).uniform(size=(20000, 5)) * (box[:, 1] - box[:, 0])
        # BLAS may sum the output product of a block in another order than
        # that of all rows at once: allow N roundings of the largest |term| sum.
        F = net.features(Zv)
        tol = net.N * np.finfo(float).eps * np.max(np.abs(F) @ np.abs(net.alpha))
        assert abs(net.eps_N - np.max(np.abs(F @ net.alpha - ds.target_fn(Zv)))) <= tol

    def test_no_validation_rows_rejected(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 100, phi=lambda s: s)
        with pytest.raises(ValueError, match="zero-size array"):
            rnn.fit_network(ds, N=10, n_validation=0)


def random_net(N=6, sigmoid="tanh", seed=0):
    rng = np.random.default_rng(seed)
    return rnn.SigmoidNetwork(
        N=N, sigmoid=sigmoid, omega=rng.normal(size=(N, 5)), beta=rng.normal(size=N),
        alpha=rng.normal(size=(N, 3)), domain=small_box(), eps_N=0.1 * seed, a=0.5, b=2.5,
        nu_x=0.2 * seed,
    )


class TestStack:
    @pytest.mark.parametrize("sigmoid", ["tanh", "logistic"])
    def test_rows_match_single_networks(self, sigmoid):
        nets = [random_net(sigmoid=sigmoid, seed=k) for k in range(3)]
        stack = rnn.SigmoidNetwork.stack(nets)
        assert stack.omega.shape == (3, 6, 5) and stack.beta.shape == (3, 6)
        assert stack.alpha.shape == (3, 6, 3) and stack.domain.shape == (3, 5, 2)
        assert list(stack.eps_N) == [0.0, 0.1, 0.2] and list(stack.nu_x) == [0.0, 0.2, 0.4]
        state = np.random.default_rng(9).normal(size=(3, 3))
        out = stack.rhs(0.3, -0.2, state.ravel())
        assert out.shape == (3, 3)
        for k, net in enumerate(nets):
            assert np.array_equal(out[k], net.rhs(0.3, -0.2, state[k]))
        Z = small_box()[:, 0] + np.random.default_rng(1).uniform(size=(7, 5))
        assert np.array_equal(stack.features(Z) @ stack.alpha,
                              np.stack([net.features(Z) @ net.alpha for net in nets]))

    def test_in_domain_per_network(self):
        nets = [random_net(seed=k) for k in range(2)]
        nets[1].domain = nets[1].domain * 0.1
        stack = rnn.SigmoidNetwork.stack(nets)
        state = np.full((4, 2, 3), 0.5)
        inside = stack.in_domain(np.zeros((4, 1)), np.zeros((4, 1)), state)
        assert inside.shape == (4, 2)
        assert inside[:, 0].all() and not inside[:, 1].any()
        assert nets[0].in_domain(0.0, 0.0, [0.5, 0.5, 0.5])
        assert not nets[1].in_domain(0.0, 0.0, [0.5, 0.5, 0.5])

    def test_single_network_stacks_to_leading_axis(self):
        stack = rnn.SigmoidNetwork.stack([random_net()])
        assert stack.omega.shape == (1, 6, 5)
        assert stack.rhs(0.1, 0.2, [0.3, 0.4, 0.5]).shape == (1, 3)

    def test_mismatched_networks_rejected(self):
        with pytest.raises(ValueError, match="share N"):
            rnn.SigmoidNetwork.stack([random_net(N=6), random_net(N=7)])
        with pytest.raises(ValueError, match="share N"):
            rnn.SigmoidNetwork.stack([random_net(), random_net(sigmoid="logistic")])
        with pytest.raises(ValueError):
            rnn.SigmoidNetwork.stack([])
        stack = rnn.SigmoidNetwork.stack([random_net(), random_net(seed=1)])
        with pytest.raises(ValueError):
            rnn.SigmoidNetwork.stack([stack, random_net()])

    def test_inconsistent_stacked_shapes_rejected(self):
        net = random_net()
        kw = dict(N=6, sigmoid="tanh", eps_N=0.0, a=0.5, b=2.5)
        arrays = dict(omega=np.stack([net.omega] * 2), beta=np.stack([net.beta] * 2),
                      alpha=np.stack([net.alpha] * 2), domain=np.stack([net.domain] * 2))
        rnn.SigmoidNetwork(**kw, **arrays)
        for key in arrays:
            bad = dict(arrays, **{key: np.stack([getattr(net, key)] * 3)})
            with pytest.raises(ValueError):
                rnn.SigmoidNetwork(**kw, **bad)
        with pytest.raises(ValueError):
            rnn.SigmoidNetwork(**kw, **{k: v[None] for k, v in arrays.items()})

    def test_stack_has_no_json(self, tmp_path):
        stack = rnn.SigmoidNetwork.stack([random_net(), random_net(seed=1)])
        with pytest.raises(ValueError):
            stack.to_json()
        with pytest.raises(ValueError):
            stack.to_json(tmp_path / "stack.json")
        assert not (tmp_path / "stack.json").exists()


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 300, phi=lambda s: s, seed=2)
        net, _ = rnn.fit_network(ds, N=25, seed=1)
        path = tmp_path / "net.json"
        net.to_json(path)
        for source in (str(path), path):  # a str or a PathLike
            back = rnn.SigmoidNetwork.from_json(source)
            assert back.N == net.N and back.sigmoid == net.sigmoid
            assert np.array_equal(back.omega, net.omega)
            assert np.array_equal(back.alpha, net.alpha)
            Z = ds.inputs[:10]
            assert np.array_equal(back.features(Z) @ back.alpha, net.features(Z) @ net.alpha)

    def test_json_fields(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 100, phi=lambda s: s)
        net, _ = rnn.fit_network(ds, N=5, seed=1)
        d = net.to_dict()
        assert set(d) >= {"N", "sigmoid", "units", "alpha", "domain", "eps_N"}
        assert len(d["units"]) == 5
        assert len(d["units"][0]["omega"]) == 5
        assert len(d["alpha"]) == 3


def zero_network():
    """A network whose rhs is zero: its subsystem state never moves."""
    return rnn.SigmoidNetwork(
        N=1, sigmoid="tanh", omega=np.zeros((1, 5)), beta=np.zeros(1),
        alpha=np.zeros((1, 3)), domain=small_box(), eps_N=0.0, a=0.5, b=2.5,
    )


class TestSimulateRnn:
    """A network bank runs through integrate_system like a prototype bank."""

    def test_zero_network_frozen(self):
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [zero_network()], SIN, horizon=1.0, dt=1e-2
        )
        assert np.ptp(traj.column("shat_1")) == 0.0
        assert np.ptp(traj.column("x_1")) == 0.0

    def test_seed_determinism(self):
        spec = plant.PlantSpec(phi=lambda s: s, s0_range=(0.0, 1.0), noise_bound=0.01)
        kw = dict(horizon=1.0, dt=1e-2, seed=11)
        a = integrator.integrate_system(spec, LINEAR, 1.5, [zero_network()], SIN, **kw)
        b = integrator.integrate_system(spec, LINEAR, 1.5, [zero_network()], SIN, **kw)
        assert np.array_equal(a.states, b.states)

    def test_state_count_is_three_per_class(self):
        nets = [zero_network() for _ in range(4)]
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, nets, SIN, horizon=0.1, dt=1e-2
        )
        assert traj.states.shape[1] == 1 + 3 * 4

    def test_domain_escape_recorded(self):
        net = zero_network()
        net.domain = net.domain * 1e-3  # everything is immediately outside
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [net], SIN, horizon=0.5, dt=1e-2
        )
        assert traj.meta["domain_escape_t"] == [traj.times[1]]


class TestDivergenceCheck:
    def run_pair(self, horizon=1.0):
        cfg = make_config()
        spec = make_spec()
        traj_p = integrator.integrate_system(
            spec, LINEAR, 1.5, [(LINEAR, cfg)], SIN, horizon=horizon, dt=1e-2
        )
        return cfg, spec, traj_p

    def test_identical_trajectories_pass(self):
        _, _, traj = self.run_pair()
        rep = rnn.divergence_check(traj, traj, eps_N=0.1, L_i=2.0)
        assert rep.passed and rep.max_gap == 0.0

    def test_bound_zero_at_t0(self):
        _, _, traj = self.run_pair()
        rep = rnn.divergence_check(traj, traj, eps_N=0.1, L_i=2.0)
        t = traj.times - traj.times[0]
        assert (0.1 / 2.0) * (np.exp(2.0 * t[0]) - 1.0) == 0.0

    def test_domain_escape_fails(self):
        """Inside its box the frozen network stays within the envelope; the
        same network with a shrunken box fails, with the escape time."""
        _, spec, traj_p = self.run_pair()
        net = zero_network()
        rep = rnn.divergence_check(traj_p, integrator.integrate_system(
            spec, LINEAR, 1.5, [net], SIN, horizon=1.0, dt=1e-2), eps_N=10.0, L_i=2.0)
        assert rep.passed and rep.domain_escape_t is None
        net.domain = net.domain * 0.5  # x = 1 lies outside [-0.6, 0.6]
        traj_r = integrator.integrate_system(spec, LINEAR, 1.5, [net], SIN, horizon=1.0, dt=1e-2)
        rep = rnn.divergence_check(traj_p, traj_r, eps_N=10.0, L_i=2.0)
        assert rep.first_violation_t is None and rep.max_gap <= rep.max_bound
        assert not rep.passed
        assert traj_r.meta["domain_escape_t"] == [rep.domain_escape_t] == [traj_r.times[1]]

    def test_domain_escape_fails_only_its_class(self):
        """Two frozen networks, only the second with a shrunken box: class 0
        passes without an escape, class 1 fails at its own escape time."""
        cfg, spec = make_config(), make_spec()
        kw = dict(horizon=1.0, dt=1e-2)
        traj_p = integrator.integrate_system(
            spec, LINEAR, 1.5, [(LINEAR, cfg), (LINEAR, cfg)], SIN, **kw)
        nets = [zero_network(), zero_network()]
        nets[1].domain = nets[1].domain * 0.5
        traj_r = integrator.integrate_system(spec, LINEAR, 1.5, nets, SIN, **kw)
        reps = [rnn.divergence_check(traj_p, traj_r, eps_N=10.0, L_i=2.0, class_index=i)
                for i in range(2)]
        assert reps[0].passed and reps[0].domain_escape_t is None
        assert not reps[1].passed and reps[1].first_violation_t is None
        assert reps[1].domain_escape_t == 0.1

    def test_mismatched_initial_state_rejected(self):
        cfg, spec, traj_p = self.run_pair()
        traj_q = integrator.integrate_system(
            spec, LINEAR, 1.5, [(LINEAR, cfg)], SIN, horizon=1.0, dt=1e-2,
            init_states=[np.array([0.9, 0.0, 1.0])],
        )
        with pytest.raises(ValueError):
            rnn.divergence_check(traj_p, traj_q, eps_N=0.1, L_i=2.0)


class TestLipschitzEstimate:
    def test_positive_and_finite(self):
        cfg = make_config()
        L = rnn.estimate_rhs_lipschitz(LINEAR, cfg, lambda s: s, small_box(), n_samples=200)
        assert 1.0 <= L < 100.0  # the filter alone contributes slope 1

    @staticmethod
    def per_row_lipschitz(clazz, config, phi, box, n_samples, seed, h=1e-5):
        """Largest spectral norm of a central-difference Jacobian, one row at a time."""
        rng = np.random.default_rng(seed)
        Z = box[:, 0] + rng.uniform(size=(n_samples, 5)) * (box[:, 1] - box[:, 0])
        bank = [prototype.subsystem_constants(clazz, config)]
        worst = 0.0
        for xi_val, s, sh, x, y in Z:
            q = np.array([sh, x, y])
            J = np.empty((3, 3))
            for j in range(3):
                dq = np.zeros(3)
                dq[j] = h
                fp = np.array(prototype.prototype_rhs(q + dq, s, xi_val, bank, phi))
                fm = np.array(prototype.prototype_rhs(q - dq, s, xi_val, bank, phi))
                J[:, j] = (fp - fm) / (2.0 * h)
            worst = max(worst, float(np.linalg.norm(J, 2)))
        return worst

    @pytest.mark.parametrize("family", ["linear", "sine", "quadratic-affine"])
    def test_matches_per_row_loop(self, family):
        clazz = signals.builtin_class(family, (1.0, 2.0))
        cfg = make_config(epsilon=0.05)
        phi = lambda s: 1.5 * s
        L = rnn.estimate_rhs_lipschitz(clazz, cfg, phi, small_box(), n_samples=300, seed=2)
        assert L == self.per_row_lipschitz(clazz, cfg, phi, small_box(), 300, 2)

    def test_no_samples_gives_zero(self):
        assert rnn.estimate_rhs_lipschitz(LINEAR, make_config(), lambda s: s, small_box(),
                                          n_samples=0) == 0.0
