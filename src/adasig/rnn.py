"""Fixed-weight sigmoid-network realization of the classifier subsystems.

The subsystem right-hand side is a continuous map on a compact box, so it
can be approximated to any sup-accuracy by a finite sigmoid sum.  We build
that sum constructively: seeded random features (a structured mix of dense,
difference-direction, and near-linear units) with ridge least squares for
the output weights, then certify the achieved sup-error on a held-out grid.
Each class keeps its own 3-state network; the full bank has 3*N_f states.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .prototype import PrototypeConfig, prototype_rhs, subsystem_constants
from .signals import SignalClass

__all__ = [
    "SigmoidNetwork",
    "RHSDataset",
    "domain_box",
    "sample_rhs",
    "fit_network",
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
    """sigma(Z omega^T + beta) in one buffer; a leading network axis of
    omega and beta maps every network over the same rows of Z."""
    U = Z @ omega.swapaxes(-1, -2)
    U += beta[..., None, :]
    return SIGMOIDS[sigmoid](U, out=U)


@dataclass
class SigmoidNetwork:
    """zeta' = sum_j alpha_j * sigma(omega_j . (xi, s, zeta) + beta_j).

    omega: (N, 5) input weights over (xi, s, shat, x, y); beta: (N,) biases;
    alpha: (N, 3) output weights, one column per state derivative.  The
    read-back bounds (a, b) and initial phase nu_x are carried along so the
    network is a drop-in replacement for the subsystem it realizes.

    A bank of m networks that share N and the sigmoid stacks into one network
    of 3m states (see stack): every array gains a leading network axis, and
    eps_N, a, b and nu_x become (m,) arrays.  A single network is the m = 1
    case without that axis; features, rhs and in_domain serve both.
    """

    N: int
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
        self.omega = np.asarray(self.omega, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.domain = np.asarray(self.domain, dtype=float)
        if self.sigmoid not in SIGMOIDS:
            raise ValueError(f"unknown sigmoid {self.sigmoid!r}")
        lead = self.omega.shape[:-2]
        if len(lead) > 1 or self.omega.shape != lead + (self.N, 5) \
                or self.beta.shape != lead + (self.N,):
            raise ValueError("weight shapes inconsistent with N")
        if self.alpha.shape != lead + (self.N, 3) or self.domain.shape != lead + (5, 2):
            raise ValueError("alpha must be (N, 3) and domain (5, 2), "
                             "with the network axis of omega")
        for arr in (self.omega, self.beta, self.alpha, self.domain):
            if not np.all(np.isfinite(arr)):
                raise ValueError("network parameters must be finite")

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
            N=nets[0].N,
            sigmoid=nets[0].sigmoid,
            **{k: np.stack([getattr(net, k) for net in nets])
               for k in ("omega", "beta", "alpha", "domain")},
            **{k: np.array([getattr(net, k) for net in nets])
               for k in ("eps_N", "a", "b", "nu_x")},
        )

    def features(self, Z: np.ndarray) -> np.ndarray:
        return _features(Z, self.omega, self.beta, self.sigmoid)

    def rhs(self, xi_val: float, s: float, state: np.ndarray) -> np.ndarray:
        """Derivatives of the 3m states: (3,) for one network, (m, 3) for a
        stack (state holds the 3m values in network order)."""
        q = np.asarray(state, dtype=float).reshape(self.beta.shape[:-1] + (1, 3))
        Z = np.empty(q.shape[:-1] + (5,))
        Z[..., :2] = xi_val, s
        Z[..., 2:] = q
        return (self.features(Z) @ self.alpha)[..., 0, :]

    def in_domain(self, xi_val, s, state) -> np.ndarray:
        """Whether (xi, s, state) lies in the fitted box, elementwise.

        state has shape (..., 3), or (..., m, 3) for a stack; xi_val and s
        broadcast against state[..., 0].  One network at one point gives a
        scalar bool; a stack gives one flag per network.
        """
        q = np.asarray(state, dtype=float)
        z = np.stack(np.broadcast_arrays(xi_val, s, q[..., 0], q[..., 1], q[..., 2]), axis=-1)
        return np.all((z >= self.domain[..., 0]) & (z <= self.domain[..., 1]), axis=-1)

    def to_dict(self) -> dict:
        if self.omega.ndim != 2:
            raise ValueError("a stack has no single-network form; serialize its networks")
        return {
            "N": self.N,
            "sigmoid": self.sigmoid,
            "units": [
                {"omega": list(self.omega[j]), "beta": float(self.beta[j])}
                for j in range(self.N)
            ],
            "alpha": [list(self.alpha[:, k]) for k in range(3)],
            "domain": [list(row) for row in self.domain],
            "eps_N": self.eps_N,
            "a": self.a,
            "b": self.b,
            "nu_x": self.nu_x,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_dict(cls, d: dict) -> "SigmoidNetwork":
        omega = np.array([u["omega"] for u in d["units"]])
        beta = np.array([u["beta"] for u in d["units"]])
        alpha = np.ascontiguousarray(np.array(d["alpha"]).T)
        return cls(
            N=d["N"],
            sigmoid=d["sigmoid"],
            omega=omega,
            beta=beta,
            alpha=alpha,
            domain=np.array(d["domain"]),
            eps_N=d["eps_N"],
            a=d["a"],
            b=d["b"],
            nu_x=d.get("nu_x", 0.0),
        )

    @classmethod
    def from_json(cls, path) -> "SigmoidNetwork":
        """Read a network that to_json wrote; path is a str or PathLike."""
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


def drive_sup(clazz: SignalClass, xi_sup: float, a: float, b: float, n: int = 41) -> float:
    """Grid supremum of |f(xi, theta)| over [-xi_sup, xi_sup] x [a, b]."""
    xs = np.linspace(-xi_sup, xi_sup, n)
    sup = 0.0
    for th in np.linspace(a, b, n):
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
    margin: float = 0.2,
) -> np.ndarray:
    """Bounding box for (xi, s, shat, x, y) covering the reachable states,
    inflated by the given margin (default 20%).

    The filter copy settles inside |shat0| + (sup |f| + noise)/phi_min, where
    the supremum runs over the read-back interval [a, b]."""
    shat_bound = shat0_bound + (
        drive_sup(clazz, xi_sup, config.a, config.b) + noise_bound
    ) / phi_min
    m = 1.0 + margin
    return np.array(
        [
            [-xi_sup * m, xi_sup * m],
            [-s_bound * m, s_bound * m],
            [-shat_bound * m, shat_bound * m],
            [-m, m],
            [-m, m],
        ]
    )


def _target_fn(clazz: SignalClass, config: PrototypeConfig, phi) -> Callable:
    bank = [subsystem_constants(clazz, config)]

    def fn(Z: np.ndarray) -> np.ndarray:
        xi_val, s, shat, x, y = np.atleast_2d(Z).T
        return np.stack(prototype_rhs((shat, x, y), s, xi_val, bank, phi), axis=1)

    return fn


def sample_rhs(
    clazz: SignalClass,
    config: PrototypeConfig,
    box: np.ndarray,
    n_samples: int,
    phi: Callable[[float], float],
    seed: int = 0,
) -> RHSDataset:
    """Sample the subsystem right-hand side at n_samples seeded uniform
    draws over the domain box."""
    box = np.asarray(box, dtype=float)
    if box.shape != (5, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("domain box must be (5, 2) with positive widths")
    rng = np.random.default_rng(seed)
    Z = box[:, 0] + rng.uniform(size=(n_samples, 5)) * (box[:, 1] - box[:, 0])
    fn = _target_fn(clazz, config, phi)
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


_VALIDATION_BLOCK = 8192  # rows per block of validation features


def fit_network(
    dataset: RHSDataset,
    N: int,
    ridge: float = 1e-10,
    seed: int = 0,
    sigmoid: str = "logistic",
    n_validation: int = 30000,
) -> tuple[SigmoidNetwork, float]:
    """Random-feature fit with ridge least squares per output dimension.

    Returns the network and its sup-error on the training sample. The
    network's eps_N is the sup-error over a held-out seeded validation
    sample of the domain box (re-evaluating the exact right-hand side there).
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
    Phi = _features(dataset.inputs, W, beta, sigmoid)
    n = len(dataset.inputs)
    A = Phi.T @ Phi + ridge * n * np.eye(N)
    try:
        alpha = np.linalg.solve(A, Phi.T @ dataset.targets)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "normal equations are singular; increase ridge"
        ) from exc
    train_sup = float(np.max(np.abs(Phi @ alpha - dataset.targets)))
    del Phi

    # Validation features are formed one row block at a time instead of as
    # one n_validation x N matrix. With n_validation = 0 one empty block is
    # left, and np.max rejects it.
    rng_v = np.random.default_rng(seed + 1)
    Zv = box[:, 0] + rng_v.uniform(size=(n_validation, 5)) * (box[:, 1] - box[:, 0])
    val_sup = max(
        float(np.max(np.abs(_features(Zb, W, beta, sigmoid) @ alpha - dataset.target_fn(Zb))))
        for Zb in (Zv[i : i + _VALIDATION_BLOCK]
                   for i in range(0, max(n_validation, 1), _VALIDATION_BLOCK))
    )

    net = SigmoidNetwork(
        N=N,
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
    return net, train_sup


@dataclass
class DivergenceReport:
    max_gap: float
    max_bound: float
    passed: bool
    first_violation_t: Optional[float] = None
    domain_escape_t: Optional[float] = None


def divergence_check(
    traj_prototype,
    traj_rnn,
    eps_N: float,
    L_i: float,
    class_index: int = 0,
    tol: float = 1e-9,
) -> DivergenceReport:
    """Pointwise gap between prototype and network subsystem trajectories vs.
    the Gronwall envelope (eps_N / L_i) (exp(L_i (t - t0)) - 1).

    The envelope holds only while the network stays inside its fitted domain
    box, so a class whose network left it fails, and the report carries the
    first recorded time outside (entry class_index of the trajectory's meta
    "domain_escape_t", which is absent when no network left its box)."""
    if not np.allclose(traj_prototype.times, traj_rnn.times):
        raise ValueError("trajectories must share the time grid")
    i = class_index
    cols = [f"shat_{i+1}", f"x_{i+1}", f"y_{i+1}"]
    qp = np.stack([traj_prototype.column(c) for c in cols], axis=1)
    qr = np.stack([traj_rnn.column(c) for c in cols], axis=1)
    if not np.allclose(qp[0], qr[0]):
        raise ValueError("trajectories must share the initial subsystem state")
    gap = np.linalg.norm(qp - qr, axis=1)
    t = traj_prototype.times - traj_prototype.times[0]
    bound = eps_N / L_i * (np.exp(L_i * t) - 1.0)
    bad = gap > bound + tol
    first = float(traj_prototype.times[np.argmax(bad)]) if bad.any() else None
    escape = traj_rnn.meta.get("domain_escape_t", [None] * (i + 1))[i]
    return DivergenceReport(
        max_gap=float(gap.max()),
        max_bound=float(bound.max()),
        passed=not bad.any() and escape is None,
        first_violation_t=first,
        domain_escape_t=escape,
    )


def estimate_rhs_lipschitz(
    clazz: SignalClass,
    config: PrototypeConfig,
    phi: Callable[[float], float],
    box: np.ndarray,
    n_samples: int = 2000,
    seed: int = 0,
    h: float = 1e-5,
) -> float:
    """Numerical Lipschitz constant of the subsystem rhs in its own state.

    Central finite differences of the (shat, x, y) Jacobian at seeded sample
    points of the box; returns the largest spectral norm observed.
    """
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    Z = box[:, 0] + rng.uniform(size=(n_samples, 5)) * (box[:, 1] - box[:, 0])
    xi_val, s, q = Z[:, 0], Z[:, 1], Z[:, 2:].T
    bank = [subsystem_constants(clazz, config)]
    J = np.empty((len(Z), 3, 3))
    for j in range(3):
        dq = np.zeros((3, 1))
        dq[j] = h
        fp = np.stack(prototype_rhs(q + dq, s, xi_val, bank, phi), axis=1)
        fm = np.stack(prototype_rhs(q - dq, s, xi_val, bank, phi), axis=1)
        J[:, :, j] = (fp - fm) / (2.0 * h)
    return float(np.linalg.norm(J, 2, axis=(1, 2)).max(initial=0.0))
