"""Fixed-weight sigmoid-network realization of the classifier subsystems.

The subsystem right-hand side is a continuous map on a compact box, so it
can be approximated to any sup-accuracy by a finite sigmoid sum.  We build
that sum constructively: seeded random features (a structured mix of dense,
difference-direction, and near-linear units) with ridge least squares for
the output weights, then measure the sup-error on a seeded random held-out
sample (eps_N, recorded as "sampled": it is not a certified bound).
Each class keeps its own 3-state network; the full bank has 3*N_f states.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .prototype import PrototypeConfig, bank_kernel, prototype_rhs
from .signals import SignalClass

__all__ = [
    "SigmoidNetwork",
    "RHSDataset",
    "domain_box",
    "sample_rhs",
    "fit_network",
    "DivergenceReport",
    "divergence_check",
    "estimate_rhs_lipschitz",
]


def _logistic(u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """1 / (1 + exp(-u)), optionally written into out (which may be u)."""
    out = np.negative(u, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


# Each sigmoid takes an optional out array, so feature matrices are formed in place.
SIGMOIDS: dict[str, Callable[..., np.ndarray]] = {
    "logistic": _logistic,
    "tanh": np.tanh,
}


def _features(Z: np.ndarray, omega: np.ndarray, beta: np.ndarray, sigmoid: str) -> np.ndarray:
    """sigma(Z omega^T + beta) for the rows of Z, in one buffer."""
    U = Z @ omega.T
    U += beta
    return SIGMOIDS[sigmoid](U, out=U)


def _block_matrices(omega: np.ndarray, beta: np.ndarray, alpha: np.ndarray):
    """The m networks of a stack as one block network (W, A).

    W is (m N, 3 + 3m), column-major, over the columns (1, xi, s, shat_1,
    x_1, y_1, ..., shat_m, x_m, y_m): network i's rows hold its biases
    against the constant 1, its xi and s weights, and its state weights in
    its own three columns. A is (3m, m N), block-diagonal in alpha_i^T.
    Every other entry is zero.
    """
    m, N = beta.shape
    W = np.zeros((m * N, 3 + 3 * m), order="F")
    A = np.zeros((3 * m, m * N))
    for i in range(m):
        rows = slice(i * N, (i + 1) * N)
        W[rows, [0, 1, 2, 3 + 3 * i, 4 + 3 * i, 5 + 3 * i]] = np.column_stack([beta[i], omega[i]])
        A[3 * i : 3 * i + 3, rows] = alpha[i].T
    return W, A


@dataclass(frozen=True)
class SigmoidNetwork:
    """zeta' = sum_j alpha_j * sigma(omega_j . (xi, s, zeta) + beta_j).

    omega: (N, 5) input weights over (xi, s, shat, x, y); beta: (N,) biases;
    alpha: (N, 3) output weights, one column per state derivative.  The
    read-back bounds (a, b) and initial phase nu_x are carried along so the
    network is a drop-in replacement for the subsystem it realizes; they
    obey the rules PrototypeConfig sets for them, eps_N is finite and
    non-negative, and no axis of the domain box has its lower bound above
    its upper bound.  The unit count N is read from the arrays.

    A bank of m networks that share N and the sigmoid stacks into one network
    of 3m states (see stack): every array gains a leading network axis, and
    eps_N, a, b and nu_x become (m,) arrays.  A single network is the m = 1
    case without that axis; rhs serves both.  Construction lays the weights
    out once as the block network (W, A) of _block_matrices, which rhs
    evaluates.  A network is frozen and its arrays are read-only, so the
    checks and (W, A) cannot fall behind its fields; dataclasses.replace
    builds a changed copy.
    """

    sigmoid: str
    omega: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    domain: np.ndarray  # (5, 2) box
    eps_N: float
    a: float
    b: float
    nu_x: float = 0.0

    def __post_init__(self):
        # Every array is stored as a read-only copy, so neither the network
        # nor the caller's array can change the other after the checks.
        arrays = {k: np.array(getattr(self, k), dtype=float)
                  for k in ("omega", "beta", "alpha", "domain")}
        omega, beta, alpha, domain = arrays.values()
        if self.sigmoid not in SIGMOIDS:
            raise ValueError(f"unknown sigmoid {self.sigmoid!r}")
        if omega.ndim not in (2, 3) or omega.shape[-1] != 5:
            raise ValueError("omega must be (N, 5), or (m, N, 5) for a stack")
        lead, N = omega.shape[:-2], omega.shape[-2]
        if beta.shape != lead + (N,) or alpha.shape != lead + (N, 3) \
                or domain.shape != lead + (5, 2):
            raise ValueError("beta must be (N,), alpha (N, 3) and domain (5, 2), "
                             "with the network axis of omega")
        readback = [np.array(getattr(self, k), dtype=float) for k in ("eps_N", "a", "b", "nu_x")]
        if any(v.shape != lead for v in readback):
            raise ValueError("eps_N, a, b and nu_x need one value per network")
        for arr in (*arrays.values(), *readback):
            if not np.all(np.isfinite(arr)):
                raise ValueError("network parameters must be finite")
        for k, box in enumerate(domain.reshape(-1, 5, 2)):
            if np.any(box[:, 0] > box[:, 1]):
                owner = f" of network {k + 1}" if lead else ""
                raise ValueError(f"domain{owner} {box.tolist()} has a lower bound "
                                 "above its upper bound")
        eps_N, a, b, nu_x = readback
        if np.any(eps_N < 0):
            raise ValueError("eps_N must be non-negative")
        if not np.all(a < b):
            raise ValueError("need a < b")
        if not np.all((0.0 <= nu_x) & (nu_x <= 2 * math.pi)):
            raise ValueError("nu_x must lie in [0, 2*pi]")
        if lead:
            arrays.update(eps_N=eps_N, a=a, b=b, nu_x=nu_x)
        else:  # a single network's read-back values are floats
            for name, value in zip(("eps_N", "a", "b", "nu_x"), readback):
                object.__setattr__(self, name, float(value))
        arrays["W"], arrays["A"] = _block_matrices(omega.reshape(-1, N, 5),
                                                   beta.reshape(-1, N),
                                                   alpha.reshape(-1, N, 3))
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def N(self) -> int:
        """Units per network."""
        return self.beta.shape[-1]

    @classmethod
    def stack(cls, nets: Sequence["SigmoidNetwork"]) -> "SigmoidNetwork":
        """One network over the 3m states of m networks sharing N and sigmoid."""
        nets = list(nets)
        if not nets:
            raise ValueError("a stack needs at least one network")
        if any(net.omega.ndim != 2 for net in nets):
            raise ValueError("only single networks can be stacked")
        if any((net.N, net.sigmoid) != (nets[0].N, nets[0].sigmoid) for net in nets):
            raise ValueError("stacked networks must share N and the sigmoid")
        return cls(
            sigmoid=nets[0].sigmoid,
            **{k: np.stack([getattr(net, k) for net in nets])
               for k in ("omega", "beta", "alpha", "domain")},
            **{k: np.array([getattr(net, k) for net in nets])
               for k in ("eps_N", "a", "b", "nu_x")},
        )

    def rhs(self, xi_val: float, s: float, state) -> np.ndarray:
        """Derivatives (3m,) of the 3m states, given in network order: two
        matrix-vector products and one in-place sigmoid over all m N units."""
        u = self.W @ np.array([1.0, xi_val, s, *state])
        return self.A @ SIGMOIDS[self.sigmoid](u, out=u)

    def in_domain(self, xi_val, s, state) -> np.ndarray:
        """Whether (xi, s, state) lies in this network's fitted box, elementwise.

        state has shape (..., 3); xi_val and s broadcast against
        state[..., 0].  One point gives a scalar bool, a block of rows one
        flag per row.
        """
        q = np.asarray(state, dtype=float)
        z = np.stack(np.broadcast_arrays(xi_val, s, q[..., 0], q[..., 1], q[..., 2]), axis=-1)
        return np.all((z >= self.domain[..., 0]) & (z <= self.domain[..., 1]), axis=-1)

    def to_dict(self) -> dict:
        """The fields, with arrays as nested lists; from_dict reads it back."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in d.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "SigmoidNetwork":
        """The network whose fields d holds; other keys, such as a file's
        config_hash and version, are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})

    @classmethod
    def from_json(cls, path) -> "SigmoidNetwork":
        """Read a network file, to_dict's record written as JSON; path is a
        str or PathLike."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class RHSDataset:
    """Sampled graph of the subsystem right-hand side over its domain box."""

    inputs: np.ndarray  # (n, 5) rows (xi, s, shat, x, y)
    targets: np.ndarray  # (n, 3)
    domain: np.ndarray  # (5, 2)
    target_fn: Callable[[np.ndarray], np.ndarray]
    a: float = 0.0
    b: float = 1.0
    nu_x: float = 0.0


DRIVE_GRID = 41  # points per axis of drive_sup's grid
BOX_MARGIN = 0.2  # relative inflation of domain_box
LIPSCHITZ_SAMPLES = 2000  # sample points of estimate_rhs_lipschitz
LIPSCHITZ_STEP = 1e-5  # central-difference step of estimate_rhs_lipschitz
GAP_TOL = 1e-9  # rounding a divergence gap may exceed its envelope by
# eps_N is the largest error over a held-out sample, not a certified bound.
EPS_N_BASIS = "sampled"


def drive_sup(clazz: SignalClass, xi_sup: float, a: float, b: float) -> float:
    """Grid supremum of |f(xi, theta)| over [-xi_sup, xi_sup] x [a, b]."""
    xs = np.linspace(-xi_sup, xi_sup, DRIVE_GRID)
    sup = 0.0
    for th in np.linspace(a, b, DRIVE_GRID):
        sup = max(sup, float(np.max(np.abs(clazz.f(xs, th)))))
    return sup


def domain_box(
    clazz: SignalClass,
    config: PrototypeConfig,
    xi_sup: float,
    s_bound: float,
    shat0_bound: float,
    noise_bound: float,
    phi_min: float,
) -> np.ndarray:
    """Bounding box for (xi, s, shat, x, y) covering the reachable states,
    inflated by BOX_MARGIN (20%).

    The filter copy settles inside |shat0| + (sup |f| + noise)/phi_min, where
    the supremum runs over the read-back interval [a, b]."""
    shat_bound = shat0_bound + (
        drive_sup(clazz, xi_sup, config.a, config.b) + noise_bound
    ) / phi_min
    m = 1.0 + BOX_MARGIN
    return np.array(
        [
            [-xi_sup * m, xi_sup * m],
            [-s_bound * m, s_bound * m],
            [-shat_bound * m, shat_bound * m],
            [-m, m],
            [-m, m],
        ]
    )


def _target_fn(clazz: SignalClass, config: PrototypeConfig, phi_min: float) -> Callable:
    kernel = bank_kernel([(clazz, config)], phi_min)

    def fn(Z: np.ndarray) -> np.ndarray:
        xi_val, s, shat, x, y = np.atleast_2d(Z).T
        return np.stack(prototype_rhs((s, shat, x, y), s, xi_val, kernel), axis=1)

    return fn


def sample_rhs(
    clazz: SignalClass,
    config: PrototypeConfig,
    box: np.ndarray,
    n_samples: int,
    phi_min: float,
    seed: int = 0,
) -> RHSDataset:
    """Sample the subsystem right-hand side at n_samples seeded uniform
    draws over the domain box."""
    box = np.asarray(box, dtype=float)
    if box.shape != (5, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("domain box must be (5, 2) with positive widths")
    rng = np.random.default_rng(seed)
    Z = box[:, 0] + rng.uniform(size=(n_samples, 5)) * (box[:, 1] - box[:, 0])
    fn = _target_fn(clazz, config, phi_min)
    return RHSDataset(
        inputs=Z,
        targets=fn(Z),
        domain=box,
        target_fn=fn,
        a=config.a,
        b=config.b,
        nu_x=config.nu_x,
    )


def _draw_features(box: np.ndarray, N: int, rng: np.random.Generator):
    """Structured random features tuned to the subsystem's geometry.

    Three groups: dense directions with log-uniform scales (generic
    curvature), difference directions w_s = -w_shat (the rhs depends on s
    and shat mostly through their difference), and small-scale near-linear
    units (the rhs is polynomial away from the dead zone).
    """
    widths = box[:, 1] - box[:, 0]
    nA, nB = N // 4, N // 2
    nC = N - nA - nB
    WA = rng.normal(size=(nA, 5)) / widths * np.exp(
        rng.uniform(np.log(0.5), np.log(6.0), (nA, 1))
    )
    WB = np.zeros((nB, 5))
    wd = rng.normal(size=nB)
    WB[:, 1] = wd
    WB[:, 2] = -wd
    WB[:, 3] = 0.7 * rng.normal(size=nB)
    WB[:, 4] = 0.7 * rng.normal(size=nB)
    WB = WB / widths.mean() * np.exp(rng.uniform(np.log(0.5), np.log(8.0), (nB, 1)))
    WC = rng.normal(size=(nC, 5)) / widths * 0.3
    W = np.vstack([WA, WB, WC])
    centers = box[:, 0] + rng.uniform(size=(N, 5)) * widths
    beta = -np.sum(W * centers, axis=1)
    return W, beta


VALIDATION_ROWS = 30000  # held-out rows behind a network's eps_N
# Rows per block of validation features: 3.2 MB at N = 400. When glibc frees
# an mmapped block it raises its mmap threshold to that block's size (up to
# 32 MiB), so larger blocks would come from the heap from the second one on.
# A row of features has the same bits in a block of any size; the product
# with alpha does not: at N = 400 a block of 850 rows or more keeps the bits
# of one product over all rows, and a block of 801 rows or fewer, or a short
# tail block, rounds differently.
_VALIDATION_BLOCK = 1000
# Rows per chunk of training features: the K block (GEMM_Q) of OpenBLAS's
# SkylakeX kernel on one thread, which cuts K into blocks of 384 and splits a
# remainder of 385-767 rows into two halves, the first rounded up. Summed
# in that order, the chunks give the bits of one syrk over all rows, and of
# one gemm where its first half (rounded up to 16 rows) is the same, as at
# n = 40,000. Under another kernel the chunked sum is still one fixed order,
# as deterministic as one product and equal to it up to rounding.
_FIT_CHUNK = 384


def _row_chunks(n: int) -> list[tuple[int, int]]:
    """The (start, stop) rows of the training chunks, in order, tiling [0, n)."""
    starts = list(range(0, n, _FIT_CHUNK))
    if len(starts) > 1 and n - starts[-2] < 2 * _FIT_CHUNK:
        starts[-1] = starts[-2] + (n - starts[-2] + 1) // 2
    return list(zip(starts, starts[1:] + [n]))


def _normal_equations(Z: np.ndarray, targets: np.ndarray, omega: np.ndarray,
                      beta: np.ndarray, sigmoid: str) -> tuple[np.ndarray, np.ndarray]:
    """(Phi^T Phi, Phi^T targets) for the features Phi of the rows of Z,
    summed over _row_chunks so that Phi is never held whole."""
    N = len(beta)
    G, R = np.zeros((N, N)), np.zeros((N, targets.shape[1]))
    for start, stop in _row_chunks(len(Z)):
        P = _features(Z[start:stop], omega, beta, sigmoid)
        G += P.T @ P
        R += P.T @ targets[start:stop]
    return G, R


def fit_network(
    dataset: RHSDataset,
    N: int,
    ridge: float = 1e-10,
    seed: int = 0,
    sigmoid: str = "logistic",
) -> SigmoidNetwork:
    """Random-feature fit with ridge least squares per output dimension.

    The network's eps_N is the sup-error over VALIDATION_ROWS held-out seeded
    uniform rows of the domain box (re-evaluating the exact right-hand side there).
    """
    if N < 1:
        raise ValueError("need at least one unit")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if len(dataset.inputs) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    box = dataset.domain
    W, beta = _draw_features(box, N, rng)
    G, R = _normal_equations(dataset.inputs, dataset.targets, W, beta, sigmoid)
    G += ridge * len(dataset.inputs) * np.eye(N)
    try:
        alpha = np.linalg.solve(G, R)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "normal equations are singular; increase ridge"
        ) from exc

    # Validation features are formed one row block at a time instead of as
    # one VALIDATION_ROWS x N matrix. With no rows one empty block is left,
    # and np.max rejects it.
    rng_v = np.random.default_rng(seed + 1)
    Zv = box[:, 0] + rng_v.uniform(size=(VALIDATION_ROWS, 5)) * (box[:, 1] - box[:, 0])
    val_sup = max(
        float(np.max(np.abs(_features(Zb, W, beta, sigmoid) @ alpha - dataset.target_fn(Zb))))
        for Zb in (Zv[i : i + _VALIDATION_BLOCK]
                   for i in range(0, max(VALIDATION_ROWS, 1), _VALIDATION_BLOCK))
    )

    return SigmoidNetwork(
        sigmoid=sigmoid,
        omega=W,
        beta=beta,
        alpha=alpha,
        domain=box,
        eps_N=val_sup,
        a=dataset.a,
        b=dataset.b,
        nu_x=dataset.nu_x,
    )


@dataclass
class DivergenceReport:
    """One class's Gronwall check, as divergence.json records it.

    vacuous: max_bound reaches the diagonal of the network's (shat, x, y)
    box, the largest gap two states inside it can have, so the check could
    not have failed. informative_horizon: the time the envelope reaches the
    decision band, ln(1 + band L_i / eps_N) / L_i (inf for eps_N = 0).
    """

    max_gap: float
    max_bound: float
    passed: bool
    first_violation_t: Optional[float]
    domain_escape_t: Optional[float]
    L_i: float
    vacuous: bool
    informative_horizon: float
    eps_N_basis: str = EPS_N_BASIS


def divergence_check(traj_prototype, traj_rnn, net: SigmoidNetwork, L_i: float,
                     band: float, xi: Callable, class_index: int = 0) -> DivergenceReport:
    """Pointwise gap between the prototype and network trajectories of one
    class vs. the Gronwall envelope (eps_N / L_i) (exp(L_i (t - t0)) - 1),
    with eps_N and the domain box of net, that class's network.

    The envelope holds only while the network stays inside its fitted domain
    box, so a class whose network left it fails, and the report carries the
    first recorded time outside: every row of traj_rnn after the first is
    checked, with the input xi read at the row's own time."""
    if not np.allclose(traj_prototype.times, traj_rnn.times):
        raise ValueError("trajectories must share the time grid")
    i = class_index
    qp, qr = traj_prototype.subsystem(i), traj_rnn.subsystem(i)
    if not np.allclose(qp[0], qr[0]):
        raise ValueError("trajectories must share the initial subsystem state")
    gap = np.linalg.norm(qp - qr, axis=1)
    t = traj_prototype.times - traj_prototype.times[0]
    eps_N = net.eps_N
    with np.errstate(over="ignore"):  # past L_i t = 709 the envelope is inf
        bound = eps_N / L_i * (np.exp(L_i * t) - 1.0)
    bad = gap > bound + GAP_TOL
    first = float(traj_prototype.times[np.argmax(bad)]) if bad.any() else None
    inside = net.in_domain(xi(traj_rnn.times[1:]), traj_rnn.states[1:, 0], qr[1:])
    escape = None if inside.all() else float(traj_rnn.times[1 + int(inside.argmin())])
    max_bound = float(bound.max())
    diagonal = float(np.linalg.norm(np.ptp(net.domain[2:], axis=1)))
    return DivergenceReport(
        max_gap=float(gap.max()),
        max_bound=max_bound,
        passed=not bad.any() and escape is None,
        first_violation_t=first,
        domain_escape_t=escape,
        L_i=L_i,
        vacuous=max_bound >= diagonal,
        informative_horizon=math.log1p(band * L_i / eps_N) / L_i if eps_N > 0 else math.inf,
    )


def estimate_rhs_lipschitz(
    clazz: SignalClass,
    config: PrototypeConfig,
    phi_min: float,
    box: np.ndarray,
    seed: int = 0,
) -> float:
    """Numerical Lipschitz constant of the subsystem rhs in its own state.

    Central finite differences of the (shat, x, y) Jacobian at
    LIPSCHITZ_SAMPLES seeded uniform points of the box; returns the largest
    spectral norm observed.
    """
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    Z = box[:, 0] + rng.uniform(size=(LIPSCHITZ_SAMPLES, 5)) * (box[:, 1] - box[:, 0])
    fn = _target_fn(clazz, config, phi_min)
    J = np.empty((len(Z), 3, 3))
    for j in range(3):
        dz = np.zeros(5)
        dz[2 + j] = LIPSCHITZ_STEP
        J[:, :, j] = (fn(Z + dz) - fn(Z - dz)) / (2.0 * LIPSCHITZ_STEP)
    return float(np.linalg.norm(J, 2, axis=(1, 2)).max(initial=0.0))
