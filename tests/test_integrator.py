import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adasig import integrator, plant, prototype, rnn, signals

LINEAR = signals.builtin_class("linear", (1.0, 2.0))
SIN = signals.sin_input()


def make_spec(noise_bound=0.0):
    return plant.PlantSpec(phi=lambda s: s, phi_min=1.0, phi_max=1.0,
                           s0_range=(0.0, 1.0), noise_bound=noise_bound)


def make_config(**kw):
    base = dict(gamma=0.05, a=0.5, b=2.5)
    base.update(kw)
    return prototype.PrototypeConfig(**base)


def reference_rk4_step(rhs, state, t, dt):
    """The array RK4 step that the float stepper must reproduce bit for bit."""
    k1 = rhs(state, t)
    k2 = rhs(state + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(state + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(state + dt * k3, t + dt)
    out = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise FloatingPointError(f"integration diverged at t={t}")
    return out


class TestRk4Step:
    def test_zero_rhs(self):
        out = integrator.rk4_step(lambda q, t: np.zeros_like(q), np.array([1.0, 2.0]), 0.0, 0.1)
        assert np.array_equal(out, [1.0, 2.0])

    def test_exponential_accuracy(self):
        out = integrator.rk4_step(lambda q, t: q, np.array([1.0]), 0.0, 0.1)
        assert abs(out[0] - np.exp(0.1)) < 1e-7

    def test_contraction_stable(self):
        q = np.array([1.0])
        for _ in range(100):
            q = integrator.rk4_step(lambda q, t: [-v for v in q], q, 0.0, 0.5)
        assert abs(q[0]) < 1e-9

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            integrator.rk4_step(lambda q, t: q, np.array([1.0]), 0.0, 0.0)

    def test_divergence_detected(self):
        with pytest.raises(FloatingPointError):
            integrator.rk4_step(lambda q, t: [v * np.inf for v in q], np.array([1.0]), 0.0, 0.1)

    def test_list_in_list_out(self):
        out = integrator.rk4_step(lambda q, t: [0.5 * v for v in q], (1.0, 2.0), 0.0, 0.1)
        assert type(out) is list and all(type(v) is float for v in out)


def linear_cubic_rhs(A, c, cubic, as_list):
    """q' = A q + c t (- q**3); the same operations on a list or an array."""
    def rhs(q, t):
        q = np.asarray(q, dtype=float)
        dq = A @ q + c * t
        if cubic:
            dq = dq - q * q * q
        return dq.tolist() if as_list else dq
    return rhs


def steps_until_divergence(step, rhs, state, dt, n_steps):
    """The states of n_steps steps, and the index of the step that raised, if any."""
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            try:
                state = step(rhs, state, k * dt, dt)
            except FloatingPointError:
                return rows, k
            rows.append(np.array(state))
    return rows, None


class TestRk4MatchesArrayReference:
    """The float stepper gives the array stepper's bits and diverges at the same step."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 13), cubic=st.booleans(), dt=st.floats(1e-4, 0.5),
           seed=st.integers(0, 2**32 - 1))
    def test_states_bit_identical(self, n, cubic, dt, seed):
        rng = np.random.default_rng(seed)
        A, c = rng.normal(size=(n, n)), rng.normal(size=n)
        x0 = rng.uniform(-1.0, 1.0, size=n)
        got, k_got = steps_until_divergence(
            integrator.rk4_step, linear_cubic_rhs(A, c, cubic, True), x0.tolist(), dt, 20)
        ref, k_ref = steps_until_divergence(
            reference_rk4_step, linear_cubic_rhs(A, c, cubic, False), x0, dt, 20)
        assert k_got == k_ref
        assert np.array_equal(got, ref)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 13), kind=st.sampled_from(["overflow", "nan"]),
           dt=st.floats(0.01, 0.5), k_bad=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
    def test_divergence_at_the_same_step(self, n, kind, dt, k_bad, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(1.0, 10.0, size=n)

        def make(as_list):
            def rhs(q, t):
                q = np.asarray(q, dtype=float)
                # grows without bound until it overflows, or turns nan at step k_bad
                dq = q * q * q if kind == "overflow" else (np.nan if t >= k_bad * dt else 0.1) * q
                return dq.tolist() if as_list else dq
            return rhs

        got, k_got = steps_until_divergence(integrator.rk4_step, make(True), x0.tolist(), dt, 100)
        ref, k_ref = steps_until_divergence(reference_rk4_step, make(False), x0, dt, 100)
        assert k_ref is not None
        assert k_got == k_ref
        assert np.array_equal(got, ref)


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            integrator.Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), ["s"])

    def test_nonuniform_times_rejected(self):
        with pytest.raises(ValueError):
            integrator.Trajectory(np.array([0.0, 1.0, 3.0]), np.zeros((3, 1)), ["s"])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            integrator.Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [np.nan]]), ["s"])


class TestIntegrateSystem:
    def test_matched_start_is_fixed_point(self):
        # single class, theta_hat(x0) equals the true theta, noise-free:
        # mismatch stays inside the (zero) dead zone and the rotator never moves
        cfg = make_config(nu_x=0.0)  # x0=1 -> theta_hat = b = 2.5... use a,b so that b=theta
        cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=1.5, nu_x=0.0)
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [(LINEAR, cfg)], SIN,
            horizon=5.0, dt=1e-3, record_every=10,
        )
        assert np.max(np.abs(traj.column("x_1") - 1.0)) < 1e-12
        assert np.max(np.abs(traj.column("y_1"))) < 1e-12
        assert np.max(np.abs(traj.column("hf_1"))) < 1e-12

    def test_empty_bank_matches_plant_only(self):
        spec = make_spec(noise_bound=0.1)
        traj_a = integrator.integrate_system(
            spec, LINEAR, 1.5, [], SIN, horizon=2.0, dt=1e-3, seed=5,
            record_every=1, s0=0.5,
        )
        # reference: RK4 on the plant equation alone, noise held over each step
        eta = plant.make_noise(spec, 2000, 0.0, 1e-3, seed=5)
        s = np.array([0.5])
        ref = [0.5]
        for k in range(2000):
            rhs = lambda q, t: np.array(
                [plant.plant_rhs(q[0], float(SIN.xi(t)), LINEAR, 1.5, spec, eta[k])]
            )
            s = reference_rk4_step(rhs, s, k * 1e-3, 1e-3)
            ref.append(s[0])
        assert np.array_equal(traj_a.states[:, 0], ref)

    def test_determinism(self):
        spec = make_spec(noise_bound=0.01)
        kw = dict(horizon=2.0, dt=1e-3, seed=9)
        a = integrator.integrate_system(spec, LINEAR, 1.5, [(LINEAR, make_config())], SIN, **kw)
        b = integrator.integrate_system(spec, LINEAR, 1.5, [(LINEAR, make_config())], SIN, **kw)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.readouts, b.readouts)

    def test_rk4_order_on_smooth_problem(self):
        # global error ratio between dt and dt/2 close to 2^4
        spec = make_spec()

        def error_at(dt):
            traj = integrator.integrate_system(
                spec, LINEAR, 1.0, [], SIN, horizon=5.0, dt=dt,
                record_every=int(round(1.0 / dt)), s0=0.0,
            )
            t = traj.times
            exact = 0.5 * (np.sin(t) - np.cos(t) + np.exp(-t))
            return np.max(np.abs(traj.states[:, 0] - exact))

        ratio = error_at(0.02) / error_at(0.01)
        assert 16 * 0.7 <= ratio <= 16 * 1.3

    def test_state_bounds_respected(self):
        from adasig.analysis import check_state_bounds

        cfg = make_config(delta=0.01)
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [(LINEAR, cfg)], SIN, horizon=20.0, dt=1e-2,
        )
        assert check_state_bounds(traj, [cfg], LINEAR.lipschitz_theta, 0.0, 1.0) == []

    def test_record_every_below_one_rejected(self):
        with pytest.raises(ValueError):
            integrator.integrate_system(
                make_spec(), LINEAR, 1.5, [], SIN, horizon=1.0, record_every=0,
            )

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(TypeError):
            integrator.integrate_system(
                make_spec(), LINEAR, 1.5, [LINEAR], SIN, horizon=1.0,
            )


class TestCsvExport:
    def test_header_and_digits(self):
        cfg = make_config()
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [(LINEAR, cfg)], SIN, horizon=0.1, dt=1e-2,
            record_every=1,
        )
        text = traj.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,s,shat_1,x_1,y_1,theta_hat_1,hf_1"
        # 17 significant digits round-trip float64 exactly
        row = lines[3].split(",")
        k = 2
        assert float(row[1]) == traj.states[k, 0]
        assert float(row[5]) == traj.readouts[k, 0]

    def test_two_class_header(self):
        cfg = make_config()
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [(LINEAR, cfg), (LINEAR, cfg)], SIN,
            horizon=0.05, dt=1e-2, record_every=1,
        )
        assert traj.csv_header() == (
            "t,s,shat_1,x_1,y_1,theta_hat_1,hf_1,shat_2,x_2,y_2,theta_hat_2,hf_2"
        )

    @staticmethod
    def rowwise_csv(traj):
        """Row-by-row formatter the vectorized writer must reproduce byte for byte."""
        lines = [traj.csv_header()]
        for k in range(len(traj.times)):
            row = [traj.times[k], traj.states[k, 0]]
            for i in range(traj.n_classes):
                row += list(traj.states[k, 1 + 3 * i : 4 + 3 * i])
                row += [traj.readouts[k, 2 * i], traj.readouts[k, 2 * i + 1]]
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("n_classes", [0, 1, 3])
    def test_bytes_match_rowwise_formatter(self, tmp_path, n_classes):
        cfg = make_config(delta=0.01)
        traj = integrator.integrate_system(
            make_spec(noise_bound=0.01), LINEAR, 1.5, [(LINEAR, cfg)] * n_classes, SIN,
            horizon=2.0, dt=1e-2, seed=3, record_every=1,
        )
        path = tmp_path / "traj.csv"
        text = traj.to_csv()
        assert traj.to_csv(path) is None
        assert text == self.rowwise_csv(traj)
        assert path.read_bytes() == text.encode()


def reference_prototype_rhs(state, s, xi_val, clazz, config, phi):
    """The per-class subsystem rhs as an array-building scalar function."""
    shat, x, y = state[0], state[1], state[2]
    th = prototype.theta_hat(x, config.a, config.b)
    g = config.gamma * (max(abs(shat - s) - config.epsilon, 0.0) + config.delta)
    r2 = x * x + y * y
    return np.array([-phi(shat) + float(clazz.f(xi_val, th)),
                     g * (x - y - x * r2), g * (x + y - y * r2)])


def reference_network_rhs(net, xi_val, s, state3):
    """One network at a time, as an array-building closure over its own weights."""
    z = np.atleast_2d(np.array([xi_val, s, state3[0], state3[1], state3[2]]))
    u = z @ net.omega.T + net.beta
    act = 1.0 / (1.0 + np.exp(-u)) if net.sigmoid == "logistic" else np.tanh(u)
    return (act @ net.alpha)[0]


def reference_integration(spec, clazz, theta, bank, inp, horizon, dt, seed, s0):
    """RK4 over a closure that evaluates a prototype or network bank entry by entry."""
    n = int(round(horizon / dt))
    eta = plant.make_noise(spec, n, 0.0, dt, seed)
    init = [s0]
    for e in bank:
        if isinstance(e, tuple):
            init += list(prototype.init_state(e[1], s0).as_array())
        else:
            init += [s0, np.cos(e.nu_x), np.sin(e.nu_x)]
    state = np.array(init)
    rows = [state]
    for k in range(n):
        def rhs(q, t):
            xi_val = float(inp.xi(np.asarray(t, dtype=float)))
            dq = np.empty_like(q)
            dq[0] = plant.plant_rhs(q[0], xi_val, clazz, theta, spec, eta[k])
            for i, e in enumerate(bank):
                sub = q[1 + 3 * i : 4 + 3 * i]
                if isinstance(e, tuple):
                    dq[1 + 3 * i : 4 + 3 * i] = reference_prototype_rhs(
                        sub, q[0], xi_val, e[0], e[1], spec.phi)
                else:
                    dq[1 + 3 * i : 4 + 3 * i] = reference_network_rhs(e, xi_val, q[0], sub)
            return dq
        state = reference_rk4_step(rhs, state, k * dt, dt)
        rows.append(state)
    return np.array(rows)


FAMILIES = ["linear", "sine", "quadratic-affine"]


class TestBankMatchesPerClassReference:
    @settings(max_examples=20, deadline=None)
    @given(
        families=st.one_of(
            st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=1),
            st.lists(st.sampled_from(FAMILIES), min_size=3, max_size=3),
        ),
        delta=st.sampled_from([0.0, 0.05]),
        noise_bound=st.sampled_from([0.0, 0.02]),
        slope=st.sampled_from([1.0, 2.5]),
        theta=st.floats(1.0, 2.0),
        s0=st.floats(0.0, 1.0),
        nu_x=st.floats(0.0, 6.0),
        seed=st.integers(0, 1000),
    )
    def test_states_bit_identical(self, families, delta, noise_bound, slope, theta, s0,
                                  nu_x, seed):
        spec = plant.PlantSpec(phi=lambda s: slope * s, phi_min=slope, phi_max=slope,
                               s0_range=(0.0, 1.0), noise_bound=noise_bound)
        classes = [signals.builtin_class(f, (1.0, 2.0), id=i) for i, f in enumerate(families)]
        bank = [(c, make_config(gamma=0.3, epsilon=noise_bound / slope, delta=delta, nu_x=nu_x))
                for c in classes]
        traj = integrator.integrate_system(
            spec, classes[0], theta, bank, SIN, horizon=1.5, dt=1e-2, seed=seed,
            record_every=1, s0=s0,
        )
        ref = reference_integration(spec, classes[0], theta, bank, SIN, 1.5, 1e-2, seed, s0)
        assert np.array_equal(traj.states, ref)


def test_prototype_rhs_sees_only_python_floats(monkeypatch):
    """An np.float64 in the state changes no bit but slows every later operation."""
    seen = []

    def recording(state, s, *args):
        seen.append((*state, s))
        return real(state, s, *args)

    real = integrator.prototype_rhs
    monkeypatch.setattr(integrator, "prototype_rhs", recording)
    classes = [signals.builtin_class(f, (1.0, 2.0), id=i) for i, f in enumerate(FAMILIES)]
    bank = [(c, make_config(gamma=0.3, epsilon=0.02, delta=0.05, nu_x=1.0)) for c in classes]
    integrator.integrate_system(make_spec(noise_bound=0.02), classes[1], 1.5, bank, SIN,
                                horizon=0.5, dt=1e-2, seed=4, s0=0.3)
    assert len(seen) == 4 * 50 * 3
    assert all(type(v) is float for row in seen for v in row)


def random_network(N, sigmoid, seed, a=0.5, b=2.5):
    """A network with seeded random weights and a box wide enough for 1.5 s runs."""
    rng = np.random.default_rng(seed)
    box = np.array([[-5.0, 5.0]] * 5)
    return rnn.SigmoidNetwork(
        N=N, sigmoid=sigmoid, omega=rng.normal(size=(N, 5)), beta=rng.normal(size=N),
        alpha=0.3 * rng.normal(size=(N, 3)), domain=box, eps_N=0.0, a=a, b=b,
        nu_x=float(rng.uniform(0.0, 6.0)),
    )


# A bank entry: "proto" or a network as (N, sigmoid).
ENTRY = st.one_of(st.just("proto"),
                  st.tuples(st.sampled_from([3, 8]), st.sampled_from(["tanh", "logistic"])))


def build_bank(kinds, seed):
    bank = []
    for j, kind in enumerate(kinds):
        if kind == "proto":
            clazz = signals.builtin_class(FAMILIES[j % 3], (1.0, 2.0), id=j)
            bank.append((clazz, make_config(gamma=0.3, delta=0.05)))
        else:
            bank.append(random_network(*kind, seed=seed + j))
    return bank


class TestNetworkBankMatchesPerNetworkReference:
    """Stacked network banks reproduce the network-by-network integration bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(ENTRY, min_size=1, max_size=5).filter(
            lambda ks: 1 <= sum(k != "proto" for k in ks) <= 4),
        noise_bound=st.sampled_from([0.0, 0.02]),
        s0=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    @example(kinds=[(8, "tanh")], noise_bound=0.0, s0=0.5, seed=1)
    @example(kinds=[(8, "logistic")] * 4, noise_bound=0.02, s0=0.2, seed=2)
    @example(kinds=[(3, "tanh"), (8, "tanh"), (3, "tanh")], noise_bound=0.0, s0=0.7, seed=3)
    @example(kinds=[(8, "tanh"), "proto", (8, "tanh"), (3, "logistic")], noise_bound=0.02,
             s0=0.4, seed=4)
    def test_states_bit_identical(self, kinds, noise_bound, s0, seed):
        spec = make_spec(noise_bound=noise_bound)
        bank = build_bank(kinds, seed)
        traj = integrator.integrate_system(
            spec, LINEAR, 1.5, bank, SIN, horizon=1.5, dt=1e-2, seed=seed,
            record_every=1, s0=s0,
        )
        ref = reference_integration(spec, LINEAR, 1.5, bank, SIN, 1.5, 1e-2, seed, s0)
        assert np.array_equal(traj.states, ref)

    def test_stacked_network_rejected_as_entry(self):
        stack = rnn.SigmoidNetwork.stack([random_network(3, "tanh", 0)] * 2)
        with pytest.raises(ValueError):
            integrator.integrate_system(make_spec(), LINEAR, 1.5, [stack], SIN, horizon=0.1)


def reference_escape_t(traj, bank, inp, t0, dt, record_every):
    """The first recorded row after the start where a network leaves its box,
    checked one row and one network at a time with xi at the step end."""
    for j in range(1, len(traj.times)):
        k = j * record_every - 1
        t = t0 + k * dt
        xi_val = float(inp.xi(np.asarray(t + dt)))
        row = traj.states[j]
        for i, e in enumerate(bank):
            if isinstance(e, tuple):
                continue
            z = np.array([xi_val, row[0], *row[1 + 3 * i : 4 + 3 * i]])
            if not (np.all(z >= e.domain[:, 0]) and np.all(z <= e.domain[:, 1])):
                return t0 + (k + 1) * dt
    return None


class TestDomainEscape:
    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(ENTRY, min_size=1, max_size=4).filter(
            lambda ks: any(k != "proto" for k in ks)),
        shrink=st.floats(0.3, 1.2),
        record_every=st.sampled_from([1, 3, 7]),
        t0=st.sampled_from([0.0, 0.3]),
        degenerate=st.booleans(),
        seed=st.integers(0, 1000),
    )
    def test_matches_per_row_reference(self, kinds, shrink, record_every, t0, degenerate,
                                       seed):
        bank = build_bank(kinds, seed)
        rng = np.random.default_rng(seed)
        for e in bank:
            if not isinstance(e, tuple):
                # boxes that the run leaves at some recorded row, or never
                e.domain = np.array([[-1.1, 1.1], [-2.0, 2.0], [-2.0, 2.0],
                                     [-1.0, 1.0], [-1.0, 1.0]])
                e.domain[rng.integers(0, 5)] *= shrink
        inp = signals.degenerate_xi(0.0) if degenerate else SIN
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, bank, inp, t0=t0, horizon=2.0, dt=1e-2, seed=seed,
            record_every=record_every, s0=0.5,
        )
        expected = reference_escape_t(traj, bank, inp, t0, 1e-2, record_every)
        assert traj.meta.get("domain_escape_t") == expected

    def test_no_networks_no_escape_key(self):
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [(LINEAR, make_config())], SIN, horizon=0.5, dt=1e-2,
        )
        assert "domain_escape_t" not in traj.meta
