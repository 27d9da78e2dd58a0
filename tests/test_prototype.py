import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasig import integrator, plant, prototype, rnn, signals

ROOT = Path(__file__).resolve().parent.parent
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

    @pytest.mark.parametrize("field", ["gamma", "a", "b", "epsilon", "delta", "nu_x"])
    def test_fields_cannot_be_assigned(self, field):
        """A field passes the checks only through the constructor."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(make_config(), field, -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma", "a", "b", "epsilon", "delta", "nu_x"])
    def test_rejects_non_finite_by_name(self, field, value):
        """Every float the kernel writes as a literal, and nu_x, is finite in
        a config built directly."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make_config(**{field: value})


def reference_prototype_rhs(state, s, xi_val, clazz, config, phi_min):
    """The per-subsystem rhs the bank form replaced: one subsystem per call,
    through theta_hat and an elementwise dead zone. The plant is written
    -(phi_min * shat), negated after the product; IEEE negation is exact, so
    it has the bits of the kernel's (-phi_min) * shat."""
    shat, x, y = state
    th = prototype.theta_hat(x, config.a, config.b)
    g = config.gamma * (np.maximum(abs(shat - s) - config.epsilon, 0.0) + config.delta)
    r2 = x * x + y * y
    return -(phi_min * shat) + clazz.f(xi_val, th), g * (x - y - x * r2), g * (x + y - y * r2)


def one(clazz, config):
    """A one-subsystem bank: its kernel reads (shat, x, y) at q[1:4]. q[0]
    is the measurement's slot, which the kernel never reads: s is its own
    argument."""
    return [(clazz, config)]


class TestPrototypeRhs:
    def test_fixed_point_on_circle(self):
        # matched filter, delta=0: g=0, rotator frozen
        cfg = make_config()
        state = np.array([0.7, 0.7, 1.0, 0.0])
        d = prototype.prototype_rhs(state, 0.7, 0.3, prototype.bank_kernel(one(LINEAR, cfg), 1.0))
        assert d[1] == 0.0 and d[2] == 0.0

    def test_pure_rotation_rate(self):
        # on the circle at (1, 0) with g = gamma*delta: dx=0, dy=g
        cfg = make_config(delta=0.01)
        state = np.array([0.7, 0.7, 1.0, 0.0])
        d = prototype.prototype_rhs(state, 0.7, 0.3, prototype.bank_kernel(one(LINEAR, cfg), 1.0))
        assert d[1] == pytest.approx(0.0)
        assert d[2] == pytest.approx(cfg.gamma * cfg.delta)

    def test_filter_component(self):
        cfg = make_config()
        state = np.array([0.5, 0.5, 0.0, 1.0])  # theta_hat = 1.5
        d = prototype.prototype_rhs(state, 0.5, 0.4, prototype.bank_kernel(one(LINEAR, cfg), 1.0))
        assert d[0] == pytest.approx(-0.5 + 1.5 * 0.4)

    def test_deadzone_suppresses_rotation(self):
        cfg = make_config(epsilon=0.2)
        state = np.array([0.5, 0.6, 1.0, 0.0])  # |shat - s| = 0.1 < epsilon
        d = prototype.prototype_rhs(state, 0.5, 0.0, prototype.bank_kernel(one(LINEAR, cfg), 1.0))
        assert d[1] == 0.0 and d[2] == 0.0

    def test_deadzone_exact_up_to_half_the_float_range(self):
        """The dead zone (v + |v|) * 0.5 is exactly v while 2v is finite and
        inf past half the float range, where max(v, 0) would still be v."""
        kernel = prototype.bank_kernel(one(LINEAR, make_config(gamma=1.0)), 1.0)
        half = sys.float_info.max / 2.0
        for shat, rate in [(half, half), (math.nextafter(half, math.inf), math.inf)]:
            # the rotator at (1, 0) turns at dy/dt = gamma * |shat - s| with s = 0
            assert prototype.prototype_rhs([0.0, shat, 1.0, 0.0], 0.0, 0.3, kernel)[2] == rate

    @pytest.mark.parametrize("gap", [
        0.5,                               # v = 0: on the dead zone's corner
        math.nextafter(0.5, math.inf),     # v = one ulp above the corner
        math.nextafter(0.5, 0.0),          # v = one ulp below the corner
        0.0,                               # v = -epsilon: deep inside the dead zone
        math.inf,                          # v = inf: a diverged filter copy
        math.nan,                          # v = nan
    ])
    @pytest.mark.parametrize("block", [False, True], ids=["floats", "rows"])
    def test_deadzone_is_max_at_its_edges(self, gap, block):
        """At gamma = 1, delta = 0 the rotator at (1, 0) turns at
        dy/dt = max(|shat - s| - epsilon, 0), with the sign of zero and the
        nan kept, on floats and on a row block alike."""
        kernel = prototype.bank_kernel(one(LINEAR, make_config(gamma=1.0, epsilon=0.5)), 1.0)
        v = abs(gap) - 0.5
        want = v if math.isnan(v) else max(v, 0.0)
        if block:
            q = [np.full(3, value) for value in (0.0, gap, 1.0, 0.0)]
            with np.errstate(invalid="ignore"):  # at v = inf, dx/dt is inf * 0
                got = prototype.prototype_rhs(q, np.zeros(3), np.full(3, 0.3), kernel)[2]
            assert np.array_equal(got, np.full(3, want), equal_nan=True)
            assert not np.signbit(got).any()
        else:
            got = prototype.prototype_rhs([0.0, gap, 1.0, 0.0], 0.0, 0.3, kernel)[2]
            assert type(got) is float
            assert (math.isnan(got) and math.isnan(want)) or got == want
            assert math.copysign(1.0, got) == 1.0

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
        xi_val, s, shat, x, y = np.random.default_rng(seed).uniform(-2.0, 2.0, (5, 64))
        kernel = prototype.bank_kernel(bank, slope)
        block = prototype.prototype_rhs((s, shat, x, y), s, xi_val, kernel)
        rows = [prototype.prototype_rhs(q, s[k], xi_val[k], kernel)
                for k, q in enumerate(zip(s.tolist(), shat.tolist(), x.tolist(), y.tolist()))]
        assert np.array_equal(np.stack(block, axis=1), np.array(rows))

    def test_floats_stay_floats(self):
        # every built-in family returns a float for float arguments, and the
        # kernel casts nothing, so no numpy scalar leaks into the state
        bank = [(signals.builtin_class(f, (1.0, 2.0)), make_config(epsilon=0.05))
                for f in FAMILIES]
        q = [0.3, 0.4, 0.6, -0.8, 0.1, 1.0, 0.0, 0.5, 0.0, -1.0]
        d = prototype.prototype_rhs(q, 0.3, 0.7, prototype.bank_kernel(bank, 2.0))
        assert len(d) == 9 and all(type(v) is float for v in d)


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
        m = len(subsystems)
        size = () if rows is None else (rows,)
        # Subsystem i sits at q[1 + 3i], behind s, as in the integrator.
        xi_val, s = rng.uniform(-2.0, 2.0, (2, *size))
        q = rng.uniform(-2.0, 2.0, (1 + 3 * m, *size))
        if rows is None:
            xi_val, s, q = float(xi_val), float(s), q.tolist()
        bank, ref = [], []
        for i, (family, epsilon, delta, gamma, a, span) in enumerate(subsystems):
            clazz = signals.builtin_class(family, (1.0, 2.0))
            cfg = make_config(gamma=gamma, epsilon=epsilon, delta=delta, a=a, b=a + span)
            bank.append((clazz, cfg))
            ref += reference_prototype_rhs(q[1 + 3 * i : 4 + 3 * i], s, xi_val, clazz, cfg, slope)
        kernel = prototype.bank_kernel(bank, slope)
        out = prototype.prototype_rhs(q, s, xi_val, kernel)
        assert len(out) == 3 * m
        assert np.array_equal(np.array(out), np.array(ref))
        if rows is None:
            assert all(type(v) is float for v in out)


def random_bank(rng, m):
    """m subsystems of drawn families and constants, and a drawn plant slope."""
    bank = []
    for _ in range(m):
        clazz = signals.builtin_class(FAMILIES[rng.integers(3)], (1.0, 2.0))
        gamma, a, span = rng.uniform([0.01, 0.5, 0.1], [2.0, 1.5, 2.0]).tolist()
        cfg = make_config(gamma=gamma, a=a, b=a + span, epsilon=float(rng.choice([0.0, 0.3])),
                          delta=float(rng.choice([0.0, 0.01])))
        bank.append((clazz, cfg))
    return bank, float(rng.uniform(0.5, 3.0))


def random_args(rng, m, rows):
    """(q, s, xi_val) for a bank of m: Python floats, or blocks of 17 rows."""
    size = (17,) if rows else ()
    xi_val, s = rng.uniform(-2.0, 2.0, (2, *size))
    q = rng.uniform(-2.0, 2.0, (1 + 3 * m, *size))
    return (q, s, xi_val) if rows else (q.tolist(), float(s), float(xi_val))


class TestBankKernel:
    """prototype_rhs runs a function compiled for its bank, built from the
    source on its __doc__ with the bank's constants written in."""

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("m", range(6))
    def test_doc_source_gives_the_same_bits(self, m, rows):
        rng = np.random.default_rng(10 * m + rows)
        bank, slope = random_bank(rng, m)
        source = prototype.bank_kernel(bank, slope).__doc__
        namespace = {f"f{i}": clazz.f for i, (clazz, _) in enumerate(bank)}
        exec(compile(source, "<doc>", "exec"), namespace)
        args = random_args(rng, m, rows)
        got = prototype.prototype_rhs(*args, prototype.bank_kernel(bank, slope))
        assert len(got) == 3 * m
        assert np.array_equal(np.array(got), np.array(namespace["rhs"](*args)))
        for i in range(m):
            o = 1 + 3 * i
            assert f"shat{i}, x{i}, y{i} = q[{o}], q[{o + 1}], q[{o + 2}]" in source

    def test_prototype_imports_no_numpy(self):
        """The kernel needs no array library: prototype.py imports only the
        standard library, and row blocks bring their own arithmetic."""
        tree = ast.parse((ROOT / "src" / "adasig" / "prototype.py").read_text())
        modules = {alias.name.split(".")[0] for node in tree.body
                   if isinstance(node, ast.Import) for alias in node.names}
        modules |= {node.module.split(".")[0] for node in tree.body
                    if isinstance(node, ast.ImportFrom)}
        assert modules <= set(sys.stdlib_module_names) | {"__future__"}
        assert "numpy" not in modules

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_kernel_calls_only_the_families(self, m):
        """The generated source calls abs and the families f0..f{m-1},
        nothing else: the plant slope enters as arithmetic, and nothing is
        cast, so floats and row blocks run the same source."""
        bank, slope = random_bank(np.random.default_rng(20 + m), m)
        source = prototype.bank_kernel(bank, slope).__doc__
        calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
        assert all(isinstance(func, ast.Name) for func in calls)
        families = {f"f{i}" for i in range(m)}
        called = {func.id for func in calls}
        assert families <= called <= families | {"abs"}
        assert "float(" not in source and "maximum" not in source
        for i in range(m):
            assert f"-({slope!r}) * shat{i} + f{i}(" in source

    @pytest.mark.parametrize("m", range(5))
    def test_source_loads_no_bank_name(self, m):
        """Every constant is a literal: the only names the source loads
        besides its arguments and its own locals are the families f0..f{m-1}
        and abs; in particular not bank or phi_min."""
        bank, slope = random_bank(np.random.default_rng(30 + m), m)
        tree = ast.parse(prototype.bank_kernel(bank, slope).__doc__)
        (fn,) = tree.body
        bound = {arg.arg for arg in fn.args.args} | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        free = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} - bound
        assert free <= {f"f{i}" for i in range(m)} | {"abs"}
        assert not free & {"bank", "phi_min"}
        assert {f"f{i}" for i in range(m)} <= free

    @settings(max_examples=60, deadline=None)
    @given(
        subsystems=st.lists(
            st.tuples(st.sampled_from(FAMILIES),
                      st.sampled_from([-1.5, -0.1 - 0.2, 0.1 + 0.2, 1.0 / 3.0]),
                      st.sampled_from([0.1 + 0.2, 2.0 / 3.0, 1e-7 + 0.7, 3.0]),
                      st.sampled_from([0.1 + 0.2, 1.0 / 7.0, 0.05]),
                      st.sampled_from([0.0, -0.0])),
            min_size=1, max_size=4),
        rows=st.sampled_from([None, 1, 9]),
        slope=st.sampled_from([0.1 + 0.2, 1.0, 7.0 / 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_literals_keep_the_bits(self, subsystems, rows, slope, seed):
        """Floats and row blocks equal the per-subsystem reference bit for bit with
        negative read-back bounds, a signed-zero epsilon, delta = 0 and
        constants whose repr is long."""
        rng = np.random.default_rng(seed)
        m = len(subsystems)
        size = () if rows is None else (rows,)
        xi_val, s = rng.uniform(-2.0, 2.0, (2, *size))
        q = rng.uniform(-2.0, 2.0, (1 + 3 * m, *size))
        # Subsystem 0's shat equals s, so its dead zone sees exactly epsilon.
        q[1] = s
        if rows is None:
            xi_val, s, q = float(xi_val), float(s), q.tolist()
        bank, ref = [], []
        for i, (family, a, span, gamma, epsilon) in enumerate(subsystems):
            clazz = signals.builtin_class(family, (1.0, 2.0))
            cfg = make_config(gamma=gamma, a=a, b=a + span, epsilon=epsilon, delta=0.0)
            bank.append((clazz, cfg))
            ref += reference_prototype_rhs(q[1 + 3 * i : 4 + 3 * i], s, xi_val, clazz, cfg, slope)
        kernel = prototype.bank_kernel(bank, slope)
        out = prototype.prototype_rhs(q, s, xi_val, kernel)
        assert len(out) == 3 * m
        got, want = np.array(out, dtype=float), np.array(ref, dtype=float)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("bad", ["phi_min", "half"])
    def test_non_finite_constant_rejected(self, bad):
        """A constant with no finite literal, such as (b - a)/2 overflowing
        for a finite a and b, stops the compile instead of writing inf."""
        cfg = make_config(a=-1.5e308, b=1.5e308) if bad == "half" else make_config()
        phi_min = math.nan if bad == "phi_min" else 1.0
        with pytest.raises(ValueError, match="not finite"):
            prototype.bank_kernel(one(LINEAR, cfg), phi_min)

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("m", [2, 5])
    def test_bank_equals_its_subsystems_joined(self, m, rows):
        rng = np.random.default_rng(100 + m)
        bank, slope = random_bank(rng, m)
        q, s, xi_val = random_args(rng, m, rows)
        joined = []
        for i, entry in enumerate(bank):
            # A one-subsystem kernel reads q[1:4], so subsystem i's slice
            # starts one slot before its shat.
            joined += prototype.prototype_rhs(q[3 * i : 3 * i + 4], s, xi_val,
                                              prototype.bank_kernel([entry], slope))
        kernel = prototype.bank_kernel(bank, slope)
        assert np.array_equal(np.array(prototype.prototype_rhs(q, s, xi_val, kernel)),
                              np.array(joined))

    def test_set_up_compiles_no_kernel(self):
        """Importing the package, loading each shipped config and tuning it,
        in a fresh process, compile no kernel and no stepper: a kernel is
        compiled per run and a stepper on the first step, so the set-up path
        pays nothing for them."""
        paths = sorted(str(p) for p in (ROOT / "configs").glob("*.json"))
        assert len(paths) == 4
        code = "\n".join([
            "import builtins, warnings",
            "warnings.simplefilter('ignore')",
            "sources = []",
            "real = builtins.compile",
            "def compile(source, filename, *args, **kwargs):",
            "    sources.append(filename)",
            "    return real(source, filename, *args, **kwargs)",
            "builtins.compile = compile",
            "from adasig import cli, config, integrator",
            f"for path in {paths!r}:",
            "    cli.run_tune(config.load_config(path))",
            "print(sum(name.startswith('<bank_kernel') for name in sources),",
            "      integrator.rk4_stepper.cache_info().currsize)",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        a=st.floats(-2.0, 2.0),
        span=st.floats(0.01, 3.0),
        epsilon=st.floats(0.0, 1.0),
        delta=st.floats(0.0, 0.1),
        nan_at=st.sampled_from(["s", "shat", "x", "y"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_block_is_the_kernel_row_by_row(self, family, a, span, epsilon, delta,
                                                nan_at, seed):
        """The kernel on a row block equals the kernel on each row's floats,
        bit for bit, with rows on the dead zone's corner and a nan row,
        which both keep nan at the same places."""
        clazz = signals.builtin_class(family, (1.0, 2.0))
        bank = one(clazz, make_config(a=a, b=a + span, epsilon=epsilon, delta=delta))
        block = np.random.default_rng(seed).uniform(-2.0, 2.0, (5, 16))
        # |shat - s| - epsilon is exactly 0 on rows 0 and 1, and rows 2 and 3
        # have shat == s.
        block[1:3, :2] = [[0.0, 0.0], [epsilon, -epsilon]]
        block[2, 2:4] = block[1, 2:4]
        block[["s", "shat", "x", "y"].index(nan_at) + 1, 4] = np.nan
        xi_val, s, shat, x, y = block
        assert abs(shat[0] - s[0]) - epsilon == 0.0 == abs(shat[1] - s[1]) - epsilon
        kernel = prototype.bank_kernel(bank, 1.5)
        rows = np.stack(prototype.prototype_rhs((s, shat, x, y), s, xi_val, kernel), axis=1)
        floats = np.array([prototype.prototype_rhs(q, s[k], xi_val[k], kernel)
                           for k, q in enumerate(zip(s.tolist(), shat.tolist(), x.tolist(),
                                                     y.tolist()))])
        nan = np.isnan(floats)
        assert nan[4].any() and np.array_equal(np.isnan(rows), nan)
        assert np.array_equal(rows.view(np.uint64)[~nan], floats.view(np.uint64)[~nan])


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
    _, dx, dy = prototype.prototype_rhs([0.0, g, x, y], 0.0, 0.3, prototype.bank_kernel(bank, 1.0))
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
        with pytest.raises(ValueError, match="c must be positive"):
            prototype.tune_gamma(2.0, 0.5, 0.0, 1.0)

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


def start(nu_x, s0):
    """integrate_system's first state behind s, (shat, x, y), for a
    one-subsystem prototype bank and for a one-network bank, both at phase
    nu_x and started from s0."""
    net = rnn.SigmoidNetwork(sigmoid="tanh", omega=np.zeros((1, 5)), beta=np.zeros(1),
                             alpha=np.zeros((1, 3)), domain=[[-2.0, 2.0]] * 5, eps_N=0.0,
                             a=0.5, b=2.5, nu_x=nu_x)
    return [tuple(integrator.integrate_system(plant.PlantSpec(), LINEAR, 1.5, bank,
                                              signals.sin_input(), horizon=0.0,
                                              s0=s0).states[0, 1:].tolist())
            for bank in ([(LINEAR, make_config(nu_x=nu_x))], [net])]


class TestInitState:
    """Each subsystem starts at (s0, cos nu_x, sin nu_x): the filter copy at
    s0 and the rotator on the unit circle at phase nu_x."""

    def test_phase_zero(self):
        assert start(0.0, 0.5) == [(0.5, 1.0, 0.0)] * 2

    def test_phase_quarter(self):
        for _, x, y in start(math.pi / 2, 0.5):
            assert x == pytest.approx(0.0, abs=1e-15)
            assert y == pytest.approx(1.0)

    @given(st.floats(0, 2 * math.pi))
    def test_on_unit_circle(self, nu):
        for _, x, y in start(nu, 0.0):
            assert x**2 + y**2 == pytest.approx(1.0)
