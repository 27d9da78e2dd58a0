import ctypes
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasig import integrator, plant, prototype, rnn, signals

ROOT = Path(__file__).resolve().parent.parent
LINEAR = signals.builtin_class("linear", (1.0, 2.0))
SIN = signals.sin_input()


def make_spec():
    return plant.PlantSpec(phi_min=1.0, s0_range=(0.0, 1.0))


def make_config(**kw):
    base = dict(gamma=0.05, a=0.5, b=2.5, delta=0.01)
    base.update(kw)
    return prototype.PrototypeConfig(**base)


def small_box():
    return np.array([[-1.2, 1.2], [-2.0, 2.0], [-2.0, 2.0], [-1.2, 1.2], [-1.2, 1.2]])


class TestSampleRhs:
    def test_targets_match_rhs_pointwise(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 200, phi_min=1.0, seed=1)
        kernel = prototype.bank_kernel([(LINEAR, cfg)], 1.0)
        for z, y in zip(ds.inputs[:20], ds.targets[:20]):
            direct = prototype.prototype_rhs(z[1:], z[1], z[0], kernel)
            assert np.max(np.abs(direct - y)) < 1e-15

    @pytest.mark.parametrize("family", ["linear", "sine", "quadratic-affine"])
    def test_targets_match_per_row_loop(self, family):
        clazz = signals.builtin_class(family, (1.0, 2.0))
        cfg = make_config(epsilon=0.1)
        ds = rnn.sample_rhs(clazz, cfg, small_box(), 500, phi_min=2.0, seed=4)
        kernel = prototype.bank_kernel([(clazz, cfg)], 2.0)
        ref = np.array([prototype.prototype_rhs(np.array([s, sh, x, y]), s, xi_val, kernel)
                        for xi_val, s, sh, x, y in ds.inputs])
        assert np.array_equal(ds.targets, ref)

    def test_on_circle_matched_targets_vanish(self):
        cfg = make_config(delta=0.0)
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 100, phi_min=1.0, seed=0)
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
            rnn.sample_rhs(LINEAR, make_config(), box, 10, phi_min=1.0)


class TestFitNetwork:
    def test_zero_targets_give_zero_network(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 500, phi_min=1.0, seed=2)
        ds.targets = np.zeros_like(ds.targets)
        ds.target_fn = lambda Z: np.zeros((len(np.atleast_2d(Z)), 3))
        net = rnn.fit_network(ds, N=20, ridge=1e-8, seed=0)
        assert np.max(np.abs(net.alpha)) == 0.0
        assert net.eps_N == 0.0

    def test_determinism(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 500, phi_min=1.0, seed=2)
        n1 = rnn.fit_network(ds, N=30, seed=4)
        n2 = rnn.fit_network(ds, N=30, seed=4)
        assert np.array_equal(n1.alpha, n2.alpha)
        assert np.array_equal(n1.omega, n2.omega)

    def test_validation_error_certified(self, monkeypatch):
        monkeypatch.setattr(rnn, "VALIDATION_ROWS", 2000)
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 2000, phi_min=1.0, seed=2)
        net = rnn.fit_network(ds, N=100, seed=0, sigmoid="tanh")
        assert np.isfinite(net.eps_N) and net.eps_N > 0.0

    def test_invalid_args(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 10, phi_min=1.0)
        with pytest.raises(ValueError):
            rnn.fit_network(ds, N=0)
        with pytest.raises(ValueError):
            rnn.fit_network(ds, N=10, ridge=-1.0)


    @pytest.mark.parametrize("sigmoid", ["tanh", "logistic"])
    def test_peak_memory_below_a_quarter_of_the_feature_matrix(self, sigmoid, monkeypatch):
        """The training features are summed chunk by chunk: a fit never
        holds the n x N feature matrix, nor a quarter of it."""
        cfg = make_config()
        n, N = 16000, 64
        monkeypatch.setattr(rnn, "VALIDATION_ROWS", 2000)
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), n, phi_min=1.0, seed=2)
        tracemalloc.start()
        try:
            rnn.fit_network(ds, N=N, seed=0, sigmoid=sigmoid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * N * 8 / 4

    @pytest.mark.parametrize("sigmoid", ["tanh", "logistic"])
    def test_blocked_validation_is_sup_over_all_rows(self, sigmoid, monkeypatch):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 300, phi_min=1.0, seed=2)
        # two full validation blocks and a partial one
        rows = 2 * rnn._VALIDATION_BLOCK + 500
        monkeypatch.setattr(rnn, "VALIDATION_ROWS", rows)
        net = rnn.fit_network(ds, N=20, seed=3, sigmoid=sigmoid)
        box = small_box()
        Zv = box[:, 0] + np.random.default_rng(4).uniform(size=(rows, 5)) * (box[:, 1] - box[:, 0])
        # BLAS may sum the output product of a block in another order than
        # that of all rows at once: allow N roundings of the largest |term| sum.
        F = rnn._features(Zv, net.omega, net.beta, net.sigmoid)
        tol = net.N * np.finfo(float).eps * np.max(np.abs(F) @ np.abs(net.alpha))
        assert abs(net.eps_N - np.max(np.abs(F @ net.alpha - ds.target_fn(Zv)))) <= tol

    @pytest.mark.parametrize("sigmoid", ["tanh", "logistic"])
    def test_eps_N_keeps_the_bits_of_8192_row_blocks(self, sigmoid):
        """At N = 400, the width of the shipped network configs, eps_N is bit
        for bit the largest per-row error over held-out blocks of 8,192 rows:
        at this width the block size changes no bit."""
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 2000, phi_min=1.0, seed=2)
        net = rnn.fit_network(ds, N=400, seed=5, sigmoid=sigmoid)
        box = small_box()
        Zv = box[:, 0] + np.random.default_rng(6).uniform(
            size=(rnn.VALIDATION_ROWS, 5)) * (box[:, 1] - box[:, 0])
        errors = [np.abs(rnn._features(Zb, net.omega, net.beta, sigmoid) @ net.alpha
                         - ds.target_fn(Zb))
                  for Zb in (Zv[i : i + 8192] for i in range(0, len(Zv), 8192))]
        assert net.eps_N == np.max(np.concatenate(errors))

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="measures glibc's heap growth")
    def test_second_fit_keeps_no_held_out_heap(self):
        """In a fresh process, a second fit raises the peak RSS by less than
        two held-out blocks of 1,000 rows (4.8 MB at N = 300). glibc raises
        its mmap threshold to the size of a freed mmapped block, so larger
        held-out blocks are served from a heap that stays resident through
        the next fit: blocks of 8,192 rows add about 15 MB."""
        N = 300
        code = "\n".join([
            "import resource",
            "import numpy as np",
            "from adasig import prototype, rnn, signals",
            "clazz = signals.builtin_class('linear', (1.0, 2.0))",
            "cfg = prototype.PrototypeConfig(gamma=0.05, a=0.5, b=2.5, delta=0.01)",
            f"box = np.array({small_box().tolist()})",
            "for seed in (0, 1):",
            "    ds = rnn.sample_rhs(clazz, cfg, box, 20000, phi_min=1.0, seed=seed)",
            f"    rnn.fit_network(ds, N={N}, seed=seed)",
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)",
        ])
        # a MALLOC_ tunable in the environment would set the threshold itself
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        first_kb, second_kb = map(int, proc.stdout.split())
        assert (second_kb - first_kb) * 1024 < 2 * 1000 * N * 8

    def test_no_validation_rows_rejected(self, monkeypatch):
        monkeypatch.setattr(rnn, "VALIDATION_ROWS", 0)
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 100, phi_min=1.0)
        with pytest.raises(ValueError, match="zero-size array"):
            rnn.fit_network(ds, N=10)


def openblas_core():
    """The core name numpy's bundled OpenBLAS picked at load, or None where
    that library or its query is not found."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, name):
                query = getattr(lib, name)
                query.argtypes = []
                query.restype = ctypes.c_char_p
                return query().decode()
    return None


class TestChunkedNormalEquations:
    @pytest.mark.parametrize("n", [1, 383, 384, 385, 767, 768, 769, 1151, 1152, 1153])
    def test_chunks_tile_the_rows_in_order(self, n):
        chunks = rnn._row_chunks(n)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a < b == c for (a, b), (c, _) in zip(chunks, chunks[1:] + [(n, n)]))
        # OpenBLAS's syrk K loop: 384 rows while 768 or more are left, then
        # a remainder of 385-767 rows in two halves, the first rounded up
        expected, left = [], n
        while left:
            size = 384 if left >= 768 else (left + 1) // 2 if left > 384 else left
            expected.append(size)
            left -= size
        assert [b - a for a, b in chunks] == expected

    def test_shipped_size_chunks(self):
        assert [b - a for a, b in rnn._row_chunks(40000)] == [384] * 103 + [224, 224]

    def test_shipped_size_sum_equals_one_product(self):
        """At the shipped size (n = 40,000, N = 400, tanh), the chunked sums
        are the bits of Phi^T Phi and Phi^T targets under OpenBLAS's SkylakeX
        kernel, whose K blocking the chunks follow. Under another kernel they
        differ from one product by rounding only: 2 n eps of the sums of
        absolute terms."""
        ds = rnn.sample_rhs(LINEAR, make_config(), small_box(), 40000, phi_min=1.0, seed=7)
        W, beta = rnn._draw_features(small_box(), 400, np.random.default_rng(8))
        G, R = rnn._normal_equations(ds.inputs, ds.targets, W, beta, "tanh")
        Phi = rnn._features(ds.inputs, W, beta, "tanh")
        G0, R0 = Phi.T @ Phi, Phi.T @ ds.targets
        if openblas_core() == "SkylakeX":
            assert np.array_equal(G, G0) and np.array_equal(R, R0)
        else:
            tol = 2 * len(Phi) * np.finfo(float).eps
            np.abs(Phi, out=Phi)
            assert np.all(np.abs(G - G0) <= tol * (Phi.T @ Phi))
            assert np.all(np.abs(R - R0) <= tol * (Phi.T @ np.abs(ds.targets)))


def random_net(N=6, sigmoid="tanh", seed=0):
    rng = np.random.default_rng(seed)
    return rnn.SigmoidNetwork(
        sigmoid=sigmoid, omega=rng.normal(size=(N, 5)), beta=rng.normal(size=N),
        alpha=rng.normal(size=(N, 3)), domain=small_box(), eps_N=0.1 * seed, a=0.5, b=2.5,
        nu_x=0.2 * seed,
    )


U_ROUND = np.finfo(float).eps / 2
# numpy's tanh, and the logistic as exp, add and divide, are each within this
# many unit roundoffs of the exact sigmoid, relative to its value.
SIGMOID_ROUNDOFFS = 8
SIGMOID_LIPSCHITZ = {"tanh": 1.0, "logistic": 0.25}


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): a dot product of n terms, summed in
    any order, is within gamma_n * sum |terms| of the exact one."""
    return n * U_ROUND / (1.0 - n * U_ROUND)


def per_network_rhs(nets, xi_val, s, state):
    """Each network of a bank evaluated on its own over its own three states,
    and a bound on how far a stack's rhs may round away from it.

    The input sum of a unit is a dot product of at most K = 3 + 3m terms in
    the stack and 6 here, so the two differ by at most 2 gamma_K sum |w_k z_k|.
    The sigmoid carries that through its Lipschitz constant and adds its own
    rounding on each side. The output sum has at most m N terms in the stack
    and N here: at most 2 gamma_{mN} sum |alpha| |h| apart, where h is bounded
    by this side's activation plus its own error bound.
    """
    m, N = len(nets), nets[0].N
    K = 3 + 3 * m
    ref, bound = [], []
    for i, net in enumerate(nets):
        z = np.array([xi_val, s, *state[3 * i : 3 * i + 3]])
        u = z @ net.omega.T + net.beta
        h = np.tanh(u) if net.sigmoid == "tanh" else 1.0 / (1.0 + np.exp(-u))
        S = np.abs(net.beta) + np.abs(net.omega) @ np.abs(z)
        dh = (SIGMOID_LIPSCHITZ[net.sigmoid] * 2 * gamma(K) * S
              + 2 * SIGMOID_ROUNDOFFS * U_ROUND * np.abs(h))
        ref.append(h @ net.alpha)
        bound.append(np.abs(net.alpha).T @ (dh + 2 * gamma(m * N) * (np.abs(h) + dh)))
    return np.concatenate(ref), np.concatenate(bound)


class TestStack:
    @pytest.mark.parametrize("sigmoid", ["tanh", "logistic"])
    def test_block_matrices_hold_every_network(self, sigmoid):
        nets = [random_net(sigmoid=sigmoid, seed=k) for k in range(3)]
        stack = rnn.SigmoidNetwork.stack(nets)
        assert stack.omega.shape == (3, 6, 5) and stack.beta.shape == (3, 6)
        assert stack.alpha.shape == (3, 6, 3) and stack.domain.shape == (3, 5, 2)
        assert list(stack.eps_N) == [0.0, 0.1, 0.2] and list(stack.nu_x) == [0.0, 0.2, 0.4]
        W, A = stack.W, stack.A
        assert W.shape == (18, 12) and W.flags.f_contiguous and A.shape == (9, 18)
        in_W, in_A = np.zeros(W.shape, bool), np.zeros(A.shape, bool)
        for i, net in enumerate(nets):
            rows = slice(6 * i, 6 * i + 6)
            own = [0, 1, 2, 3 + 3 * i, 4 + 3 * i, 5 + 3 * i]
            assert np.array_equal(W[rows, own], np.column_stack([net.beta, net.omega]))
            assert np.array_equal(A[3 * i : 3 * i + 3, rows], net.alpha.T)
            in_W[rows, own] = in_A[3 * i : 3 * i + 3, rows] = True
        assert not W[~in_W].any() and not A[~in_A].any()
        # one network alone is its own block network
        single = nets[1]
        assert np.array_equal(single.W, np.column_stack([single.beta, single.omega]))
        assert np.array_equal(single.A, single.alpha.T)

    @settings(max_examples=60, deadline=None)
    @given(N=st.sampled_from([3, 8, 37]), sigmoid=st.sampled_from(["tanh", "logistic"]),
           m=st.integers(1, 4), scale=st.sampled_from([0.1, 1.0, 10.0]),
           seed=st.integers(0, 10_000))
    def test_stage_matches_per_network_reference(self, N, sigmoid, m, scale, seed):
        rng = np.random.default_rng(seed)
        nets = [rnn.SigmoidNetwork(
            sigmoid=sigmoid, omega=scale * rng.normal(size=(N, 5)),
            beta=scale * rng.normal(size=N), alpha=rng.normal(size=(N, 3)),
            domain=small_box(), eps_N=0.0, a=0.5, b=2.5) for _ in range(m)]
        xi_val, s, *state = rng.uniform(-2.0, 2.0, size=2 + 3 * m).tolist()
        out = rnn.SigmoidNetwork.stack(nets).rhs(xi_val, s, state)
        ref, bound = per_network_rhs(nets, xi_val, s, state)
        assert out.shape == (3 * m,)
        assert np.all(np.abs(out - ref) <= bound)

    def test_in_domain_per_network(self):
        nets = [random_net(seed=k) for k in range(2)]
        nets[1] = dataclasses.replace(nets[1], domain=nets[1].domain * 0.1)
        state = np.full((4, 3), 0.5)
        inside = [net.in_domain(np.zeros(4), np.zeros(4), state) for net in nets]
        assert inside[0].shape == inside[1].shape == (4,)
        assert inside[0].all() and not inside[1].any()
        assert nets[0].in_domain(0.0, 0.0, [0.5, 0.5, 0.5])
        assert not nets[1].in_domain(0.0, 0.0, [0.5, 0.5, 0.5])

    def test_single_network_stacks_to_leading_axis(self):
        stack = rnn.SigmoidNetwork.stack([random_net()])
        assert stack.omega.shape == (1, 6, 5)
        assert stack.rhs(0.1, 0.2, [0.3, 0.4, 0.5]).shape == (3,)

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
        kw = dict(sigmoid="tanh", eps_N=[0.0] * 2, a=[0.5] * 2, b=[2.5] * 2, nu_x=[0.0] * 2)
        arrays = dict(omega=np.stack([net.omega] * 2), beta=np.stack([net.beta] * 2),
                      alpha=np.stack([net.alpha] * 2), domain=np.stack([net.domain] * 2))
        rnn.SigmoidNetwork(**kw, **arrays)
        for key in arrays:
            bad = dict(arrays, **{key: np.stack([getattr(net, key)] * 3)})
            with pytest.raises(ValueError):
                rnn.SigmoidNetwork(**kw, **bad)
        for key in ("eps_N", "a", "b", "nu_x"):  # one read-back value per network
            with pytest.raises(ValueError, match="one value per network"):
                rnn.SigmoidNetwork(**arrays, **dict(kw, **{key: kw[key][:1]}))
        with pytest.raises(ValueError):
            rnn.SigmoidNetwork(**kw, **{k: v[None] for k, v in arrays.items()})

    @pytest.mark.parametrize("bad", [
        dict(a=2.5, b=0.5), dict(a=1.0, b=1.0), dict(a=-math.inf), dict(b=math.nan),
        dict(eps_N=-0.1), dict(eps_N=math.inf), dict(eps_N=math.nan),
        dict(nu_x=-0.1), dict(nu_x=7.0), dict(nu_x=math.nan),
    ])
    def test_impossible_readback_rejected(self, bad):
        """The read-back values obey PrototypeConfig's rules, and eps_N is
        finite and non-negative: for one network, and for each network of a
        stack."""
        with pytest.raises(ValueError):
            dataclasses.replace(random_net(), **bad)
        stack = rnn.SigmoidNetwork.stack([random_net(), random_net(seed=1)])
        per_network = {k: np.array([getattr(stack, k)[0], v]) for k, v in bad.items()}
        with pytest.raises(ValueError):
            dataclasses.replace(stack, **per_network)

    def test_inverted_domain_rejected(self, tmp_path):
        """A box with an axis whose lower bound exceeds its upper bound is
        refused on construction and when read from a file, for one network
        and for each network of a stack; a zero-width axis is a box."""
        inverted = np.array([[1.0, -1.0]] * 5)
        with pytest.raises(ValueError, match=r"domain \[\[1\.0, -1\.0\]"):
            dataclasses.replace(random_net(), domain=inverted)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(random_net().to_dict() | {"domain": inverted.tolist()}))
        with pytest.raises(ValueError, match="domain"):
            rnn.SigmoidNetwork.from_json(path)
        stack = rnn.SigmoidNetwork.stack([random_net(), random_net(seed=1)])
        with pytest.raises(ValueError, match="domain of network 2"):
            dataclasses.replace(stack, domain=np.stack([stack.domain[0], inverted]))
        assert dataclasses.replace(random_net(), domain=np.zeros((5, 2))).N == 6

    def test_edge_readback_accepted(self):
        net = dataclasses.replace(random_net(), eps_N=0.0, nu_x=2 * math.pi)
        assert net.nu_x == 2 * math.pi and net.eps_N == 0.0


class TestFrozen:
    """A network cannot change after construction, so its checks and its
    block matrices always describe its fields."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_no_field_or_array_can_be_written(self, stacked):
        net = random_net()
        if stacked:
            net = rnn.SigmoidNetwork.stack([net, random_net(seed=1)])
        before = net.rhs(0.1, 0.2, [0.3, 0.4, 0.5] * (2 if stacked else 1))
        for name in [f.name for f in dataclasses.fields(net)] + ["W", "A"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(net, name, getattr(net, name))
        arrays = [v for v in vars(net).values() if isinstance(v, np.ndarray)]
        # omega, beta, alpha, domain, W and A; a stack's read-back values too
        assert len(arrays) == (10 if stacked else 6)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        after = net.rhs(0.1, 0.2, [0.3, 0.4, 0.5] * (2 if stacked else 1))
        assert np.array_equal(before, after)

    def test_single_readback_values_are_floats(self):
        """A single network stores its read-back values as floats, so a 0-d
        array passed in cannot change them afterwards."""
        eps_N = np.array(0.1)
        net = dataclasses.replace(random_net(), eps_N=eps_N, a=np.array(0.5))
        eps_N[...] = -1.0
        assert net.eps_N == 0.1 and net.a == 0.5
        assert all(type(getattr(net, k)) is float for k in ("eps_N", "a", "b", "nu_x"))

    def test_replace_rebuilds_the_block_network(self):
        """A changed copy comes from dataclasses.replace, and its rhs follows
        its new alpha, as the stack built from it does."""
        zero = dataclasses.replace(random_net(), alpha=np.zeros((6, 3)))
        state = [0.3, 0.4, 0.5]
        assert not zero.rhs(0.1, 0.2, state).any()
        assert not rnn.SigmoidNetwork.stack([zero]).rhs(0.1, 0.2, state).any()

    def test_callers_arrays_stay_its_own(self):
        """The network stores copies: the caller's arrays stay writable, and
        writing into them leaves the network as it was built."""
        alpha = np.ones((6, 3))
        net = dataclasses.replace(random_net(), alpha=alpha)
        alpha[:] = 0.0
        assert alpha.flags.writeable
        assert np.all(net.alpha == 1.0) and np.all(net.A == 1.0)


class TestSerialization:
    """A network's dict is its fields, arrays as nested lists."""

    def test_roundtrip(self, tmp_path):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 300, phi_min=1.0, seed=2)
        net = rnn.fit_network(ds, N=25, seed=1)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net.to_dict()))
        for source in (str(path), path):  # a str or a PathLike
            back = rnn.SigmoidNetwork.from_json(source)
            assert back.N == net.N and back.sigmoid == net.sigmoid
            for key in ("omega", "beta", "alpha", "domain"):
                assert np.array_equal(getattr(back, key), getattr(net, key))
            assert (back.eps_N, back.a, back.b, back.nu_x) == (net.eps_N, net.a, net.b, net.nu_x)
            for xi_val, s, *state in ds.inputs[:10].tolist():
                assert np.array_equal(back.rhs(xi_val, s, state), net.rhs(xi_val, s, state))

    def test_json_fields(self):
        cfg = make_config()
        ds = rnn.sample_rhs(LINEAR, cfg, small_box(), 100, phi_min=1.0)
        net = rnn.fit_network(ds, N=5, seed=1)
        d = net.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(rnn.SigmoidNetwork)]
        assert set(d) == {"sigmoid", "omega", "beta", "alpha", "domain",
                          "eps_N", "a", "b", "nu_x"}
        shapes = {k: np.shape(d[k]) for k in ("omega", "beta", "alpha", "domain")}
        assert shapes == {"omega": (5, 5), "beta": (5,), "alpha": (5, 3), "domain": (5, 2)}
        # a file's stamp is ignored; a missing field is not filled in
        stamped = d | {"config_hash": "0" * 16, "version": "0"}
        assert rnn.SigmoidNetwork.from_dict(stamped).to_dict() == d
        with pytest.raises(KeyError):
            rnn.SigmoidNetwork.from_dict({k: v for k, v in d.items() if k != "nu_x"})

    def test_stack_roundtrip(self):
        stack = rnn.SigmoidNetwork.stack([random_net(), random_net(seed=1)])
        back = rnn.SigmoidNetwork.from_dict(json.loads(json.dumps(stack.to_dict())))
        assert back.sigmoid == stack.sigmoid and back.N == stack.N
        for f in dataclasses.fields(rnn.SigmoidNetwork)[1:]:
            assert np.array_equal(getattr(back, f.name), getattr(stack, f.name))
        assert np.array_equal(back.W, stack.W) and np.array_equal(back.A, stack.A)


def zero_network(eps_N=0.0, domain=None):
    """A network whose rhs is zero: its subsystem state never moves."""
    return rnn.SigmoidNetwork(
        sigmoid="tanh", omega=np.zeros((1, 5)), beta=np.zeros(1),
        alpha=np.zeros((1, 3)), domain=small_box() if domain is None else domain,
        eps_N=eps_N, a=0.5, b=2.5,
    )


class TestSimulateRnn:
    """A network bank runs through integrate_system like a prototype bank."""

    def test_zero_network_frozen(self):
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [zero_network()], SIN, horizon=1.0, dt=1e-2
        )
        shat, x, _ = traj.subsystem(0).T
        assert np.ptp(shat) == 0.0
        assert np.ptp(x) == 0.0

    def test_seed_determinism(self):
        spec = plant.PlantSpec(s0_range=(0.0, 1.0), noise_bound=0.01)
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
        net = zero_network(domain=small_box() * 1e-3)  # everything is immediately outside
        traj = integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [net], SIN, horizon=0.5, dt=1e-2
        )
        rep = rnn.divergence_check(traj, traj, net, 2.0, 0.18, SIN.xi)
        assert rep.domain_escape_t == traj.times[1] and not rep.passed


class TestDivergenceCheck:
    BAND = 0.18

    def run_pair(self, horizon=1.0):
        cfg = make_config()
        spec = make_spec()
        traj_p = integrator.integrate_system(
            spec, LINEAR, 1.5, [(LINEAR, cfg)], SIN, horizon=horizon, dt=1e-2
        )
        return cfg, spec, traj_p

    def test_identical_trajectories_pass(self):
        _, _, traj = self.run_pair()
        rep = rnn.divergence_check(traj, traj, zero_network(eps_N=0.1), 2.0, self.BAND, SIN.xi)
        assert rep.passed and rep.max_gap == 0.0

    def test_bound_zero_at_t0(self):
        _, _, traj = self.run_pair()
        rep = rnn.divergence_check(traj, traj, zero_network(eps_N=0.1), 2.0, self.BAND, SIN.xi)
        t = traj.times - traj.times[0]
        assert (0.1 / 2.0) * (np.exp(2.0 * t[0]) - 1.0) == 0.0

    def test_record_carries_L_i_and_the_basis(self):
        _, _, traj = self.run_pair()
        rep = rnn.divergence_check(traj, traj, zero_network(eps_N=0.1), 2.0, self.BAND, SIN.xi)
        assert rep.L_i == 2.0 and rep.eps_N_basis == "sampled"

    def test_domain_escape_fails(self):
        """Inside its box the frozen network stays within the envelope; the
        same network with a shrunken box fails, with the escape time."""
        _, spec, traj_p = self.run_pair()
        net = zero_network(eps_N=10.0)
        rep = rnn.divergence_check(traj_p, integrator.integrate_system(
            spec, LINEAR, 1.5, [net], SIN, horizon=1.0, dt=1e-2), net, 2.0, self.BAND, SIN.xi)
        assert rep.passed and rep.domain_escape_t is None
        net = dataclasses.replace(net, domain=net.domain * 0.5)  # x = 1 lies outside [-0.6, 0.6]
        traj_r = integrator.integrate_system(spec, LINEAR, 1.5, [net], SIN, horizon=1.0, dt=1e-2)
        rep = rnn.divergence_check(traj_p, traj_r, net, 2.0, self.BAND, SIN.xi)
        assert rep.first_violation_t is None and rep.max_gap <= rep.max_bound
        assert not rep.passed
        assert rep.domain_escape_t == traj_r.times[1]

    def test_domain_escape_fails_only_its_class(self):
        """Two frozen networks, only the second with a shrunken box: class 0
        passes without an escape, class 1 fails at its own escape time."""
        cfg, spec = make_config(), make_spec()
        kw = dict(horizon=1.0, dt=1e-2)
        traj_p = integrator.integrate_system(
            spec, LINEAR, 1.5, [(LINEAR, cfg), (LINEAR, cfg)], SIN, **kw)
        nets = [zero_network(eps_N=10.0), zero_network(eps_N=10.0, domain=small_box() * 0.5)]
        traj_r = integrator.integrate_system(spec, LINEAR, 1.5, nets, SIN, **kw)
        reps = [rnn.divergence_check(traj_p, traj_r, nets[i], 2.0, self.BAND, SIN.xi, class_index=i)
                for i in range(2)]
        assert reps[0].passed and reps[0].domain_escape_t is None
        assert not reps[1].passed and reps[1].first_violation_t is None
        assert reps[1].domain_escape_t == 0.1

    def test_mismatched_initial_state_rejected(self):
        _, spec, traj_p = self.run_pair()
        # starts at (0.9, cos(pi/2), 1.0); traj_p starts at (0.5, 1.0, 0.0)
        traj_q = integrator.integrate_system(
            spec, LINEAR, 1.5, [(LINEAR, make_config(nu_x=np.pi / 2))], SIN,
            horizon=1.0, dt=1e-2, s0=0.9,
        )
        with pytest.raises(ValueError):
            rnn.divergence_check(traj_p, traj_q, zero_network(eps_N=0.1), 2.0, self.BAND, SIN.xi)

    def test_overflowing_envelope_is_inf_without_a_warning(self):
        """Past L_i t = 709.8, exp overflows: the envelope is inf there, the
        check is vacuous, and no RuntimeWarning is raised (the suite turns
        one into an error)."""
        _, _, traj = self.run_pair(horizon=2.0)
        L_i = 400.0  # L_i t reaches 800
        rep = rnn.divergence_check(traj, traj, zero_network(eps_N=0.1), L_i, self.BAND, SIN.xi)
        assert rep.max_bound == math.inf and rep.vacuous
        assert rep.passed and rep.first_violation_t is None


class TestEnvelopeReach:
    """The vacuity flag and the informative horizon of the check's record."""

    # (shat, x, y) widths 2, 3 and 6: the box diagonal is 7 exactly
    BOX = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.5, 1.5], [-3.0, 3.0]])

    @staticmethod
    def frozen_run(horizon):
        cfg = make_config()
        return integrator.integrate_system(
            make_spec(), LINEAR, 1.5, [(LINEAR, cfg)], SIN, horizon=horizon, dt=1e-2)

    def check(self, eps_N, L_i, box=BOX):
        traj = self.frozen_run(1.0)
        return rnn.divergence_check(traj, traj, zero_network(eps_N, box), L_i, 0.18, SIN.xi)

    def test_vacuous_from_the_box_diagonal(self):
        assert self.check(100.0, 2.0).vacuous
        assert not self.check(0.1, 2.0).vacuous

    def test_vacuous_at_the_diagonal_itself(self):
        """A box whose (shat, x, y) diagonal is max_bound exactly makes the
        check vacuous; one ulp wider does not."""
        max_bound = self.check(0.1, 2.0).max_bound
        box = self.BOX.copy()
        box[2:] = [[0.0, max_bound], [0.0, 0.0], [0.0, 0.0]]
        assert self.check(0.1, 2.0, box).vacuous
        box[2, 1] = np.nextafter(max_bound, np.inf)
        assert not self.check(0.1, 2.0, box).vacuous

    def test_informative_horizon_closed_form(self):
        """The envelope (eps_N / L)(e^{L t} - 1) reaches the band at
        t = ln(1 + band L / eps_N) / L: ln(4.6) / 2 for eps_N 0.1, L 2, band 0.18."""
        t = self.check(0.1, 2.0).informative_horizon
        assert t == pytest.approx(math.log(4.6) / 2.0, rel=1e-15)
        assert 0.1 / 2.0 * math.expm1(2.0 * t) == pytest.approx(0.18, rel=1e-15)
        assert self.check(0.0, 2.0).informative_horizon == math.inf


class TestLipschitzEstimate:
    def test_positive_and_finite(self, monkeypatch):
        monkeypatch.setattr(rnn, "LIPSCHITZ_SAMPLES", 200)
        cfg = make_config()
        L = rnn.estimate_rhs_lipschitz(LINEAR, cfg, 1.0, small_box())
        assert 1.0 <= L < 100.0  # the filter alone contributes slope 1

    @staticmethod
    def per_row_lipschitz(clazz, config, phi_min, box, n_samples, seed, h=1e-5):
        """Largest spectral norm of a central-difference Jacobian, one row at a time."""
        rng = np.random.default_rng(seed)
        Z = box[:, 0] + rng.uniform(size=(n_samples, 5)) * (box[:, 1] - box[:, 0])
        kernel = prototype.bank_kernel([(clazz, config)], phi_min)
        worst = 0.0
        for xi_val, s, sh, x, y in Z:
            q = np.array([s, sh, x, y])
            J = np.empty((3, 3))
            for j in range(3):
                dq = np.zeros(4)
                dq[1 + j] = h
                fp = np.array(prototype.prototype_rhs(q + dq, s, xi_val, kernel))
                fm = np.array(prototype.prototype_rhs(q - dq, s, xi_val, kernel))
                J[:, j] = (fp - fm) / (2.0 * h)
            worst = max(worst, float(np.linalg.norm(J, 2)))
        return worst

    @pytest.mark.parametrize("family", ["linear", "sine", "quadratic-affine"])
    def test_matches_per_row_loop(self, family, monkeypatch):
        monkeypatch.setattr(rnn, "LIPSCHITZ_SAMPLES", 300)
        clazz = signals.builtin_class(family, (1.0, 2.0))
        cfg = make_config(epsilon=0.05)
        L = rnn.estimate_rhs_lipschitz(clazz, cfg, 1.5, small_box(), seed=2)
        assert L == self.per_row_lipschitz(clazz, cfg, 1.5, small_box(), 300, 2)

    def test_no_samples_gives_zero(self, monkeypatch):
        monkeypatch.setattr(rnn, "LIPSCHITZ_SAMPLES", 0)
        assert rnn.estimate_rhs_lipschitz(LINEAR, make_config(), 1.0, small_box()) == 0.0
