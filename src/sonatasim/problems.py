"""Local loss oracles, the nonsmooth term, and data-driven constant estimation.

A distributed problem is a collection of m agent losses f_i plus a shared
nonsmooth term r.  Three loss families are supported, one entry each in
``LOSSES``, so every oracle has a single code path:

* ``quadratic-ridge``:  f_i(x) = 1/(2n) ||A_i x - b_i||^2 + lam * ||x||^2
* ``smooth-hinge``:     f_i(x) = 1/n sum_j hinge(b_ij <x, a_ij>) + lam/2 ||x||^2
* ``logistic``:         f_i(x) = 1/n sum_j log(1 + exp(-b_ij <x, a_ij>)) + lam/2 ||x||^2

All oracles are pure functions of immutable arrays and safe to call from
multiple workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FEAS_TOL = 1e-9  # box feasibility tolerance of r_value


class InputError(ValueError):
    """Input the library cannot work with (data, instance or target); the CLI
    reports every subclass as an input error with exit code 2."""


class DegenerateProblemError(InputError):
    """The problem has no usable strong convexity (mu_hat <= 0)."""


@dataclass(frozen=True)
class Regularizer:
    """Descriptor of the nonsmooth term r: zero, l1(weight), or a box constraint."""

    kind: str = "zero"  # "zero" | "l1" | "box"
    weight: float | None = None  # required by l1
    lo: float | None = None  # lo and hi required by box
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "l1", "box"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "l1" and (self.weight is None or not self.weight >= 0):
            raise ValueError(f"l1 requires a weight >= 0, got {self.weight!r}")
        if self.kind == "box" and (self.lo is None or self.hi is None or not self.lo <= self.hi):
            raise ValueError(f"box requires lo <= hi, got lo={self.lo!r}, hi={self.hi!r}")


@dataclass
class ProblemSpec:
    """m agents, each holding an (n, d) feature block and an n-vector of labels.

    ``A`` is stacked (m, n, d), ``b`` is (m, n).  Every agent has identical n
    and d by construction.  ``meta`` carries generator side-information
    (planted solution, covariance spectrum) and never affects the oracles.
    The loss kind and the data are fixed at construction: :func:`curvature`
    is memoized on the instance.
    """

    loss_kind: str
    A: np.ndarray
    b: np.ndarray
    lam: float
    reg: Regularizer = field(default_factory=Regularizer)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.loss_kind not in LOSSES:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        self.A = np.ascontiguousarray(self.A, dtype=float)
        self.b = np.ascontiguousarray(self.b, dtype=float)
        if self.A.ndim != 3 or self.b.shape != self.A.shape[:2]:
            raise ValueError("A must be (m, n, d) and b (m, n)")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not self.loss.exact and not np.all(np.abs(self.b) == 1.0):
            raise ValueError("classification labels must be +/-1")
        self._curvature = None

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def d(self) -> int:
        return self.A.shape[2]

    @property
    def loss(self) -> Loss:
        return LOSSES[self.loss_kind]


def smooth_hinge(t):
    """Smoothed hinge loss: 0 past margin 1, quadratic on [0, 1], linear below 0."""
    t = np.asarray(t, dtype=float)
    return np.where(t > 1.0, 0.0, np.where(t < 0.0, 0.5 - t, 0.5 * (t - 1.0) ** 2))


def smooth_hinge_deriv(t):
    """Derivative of :func:`smooth_hinge`; continuous at the knots 0 and 1."""
    t = np.asarray(t, dtype=float)
    return np.where(t > 1.0, 0.0, np.where(t < 0.0, -1.0, t - 1.0))


def _sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class Loss:
    """One loss family in terms of the prediction t = <a, x> and the label b.

    f_i(x) = mean_j value(t_ij, b_ij) + ridge/2 * lam * ||x||^2, and its
    Hessian is bounded by H_i = cap * A_i^T A_i / n + ridge * lam * I, with
    equality when ``exact`` is set.
    """

    value: Callable  # elementwise loss value
    deriv: Callable  # elementwise derivative in t
    cap: float  # bound on the second derivative in t
    ridge: float
    exact: bool


# Labels enter the classification losses through the margin b * t.
# log(1 + exp(-bt)) and its derivative -b * sigmoid(-bt) are evaluated stably
# for either sign of the margin.
LOSSES = {
    "quadratic-ridge": Loss(lambda t, b: 0.5 * (t - b) ** 2, lambda t, b: t - b, 1.0, 2.0, True),
    "smooth-hinge": Loss(
        lambda t, b: smooth_hinge(b * t), lambda t, b: smooth_hinge_deriv(b * t) * b, 1.0, 1.0, False
    ),
    "logistic": Loss(
        lambda t, b: np.logaddexp(0.0, -b * t), lambda t, b: -_sigmoid(-b * t) * b, 0.25, 1.0, False
    ),
}


def _check_point(x, *shape):
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"expected a point of shape {shape}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite point")
    return x


def local_value(p: ProblemSpec, i: int, x) -> float:
    """Value of agent i's local loss f_i at x."""
    x = _check_point(x, p.d)
    loss = p.loss.value(p.A[i] @ x, p.b[i])
    return float(loss.mean() + 0.5 * p.loss.ridge * p.lam * (x @ x))


def local_grad(p: ProblemSpec, i: int, x) -> np.ndarray:
    """Exact gradient of agent i's local loss at x."""
    x = _check_point(x, p.d)
    dl = p.loss.deriv(p.A[i] @ x, p.b[i])
    return p.A[i].T @ dl / p.n + p.loss.ridge * p.lam * x


def batch_grads(p: ProblemSpec, X: np.ndarray) -> np.ndarray:
    """Gradients of every agent at its own point: X is (m, d), result is (m, d)."""
    dl = p.loss.deriv(np.einsum("mnd,md->mn", p.A, X), p.b)
    return np.einsum("mnd,mn->md", p.A, dl) / p.n + p.loss.ridge * p.lam * X


def average_value(p: ProblemSpec, X):
    """Smooth part of the global objective, f(x) = (1/m) sum_i f_i(x), at a
    (d,) point (a float) or at every row of a (k, d) stack (a (k,) array)."""
    X = _check_point(X, *np.shape(X)[:-1][:1], p.d)  # (d,) or (k, d)
    stack = np.atleast_2d(X)
    A, b = p.A.reshape(-1, p.d), p.b.reshape(-1)
    out = 0.5 * p.loss.ridge * p.lam * np.einsum("kd,kd->k", stack, stack)
    # Blocks of at most d rows keep the (rows, m*n) predictions no larger than A.
    for s in range(0, len(stack), p.d):
        out[s : s + p.d] += p.loss.value(stack[s : s + p.d] @ A.T, b).mean(axis=1)
    return float(out[0]) if X.ndim == 1 else out


def average_grad(p: ProblemSpec, x) -> np.ndarray:
    """Gradient of f = (1/m) sum_i f_i at x."""
    x = _check_point(x, p.d)
    dl = p.loss.deriv(np.einsum("mnd,d->mn", p.A, x), p.b)
    return np.einsum("mnd,mn->d", p.A, dl) / (p.n * p.m) + p.loss.ridge * p.lam * x


def r_value(p: ProblemSpec, X):
    """Value of the nonsmooth term r at a (d,) point (a float) or at every row
    of a (k, d) stack (a (k,) array); inf outside the box, up to FEAS_TOL."""
    X = np.asarray(X, dtype=float)
    reg = p.reg
    if reg.kind == "zero":
        r = np.zeros(X.shape[:-1])
    elif reg.kind == "l1":
        r = reg.weight * np.abs(X).sum(axis=-1)
    else:
        inside = (X >= reg.lo - FEAS_TOL) & (X <= reg.hi + FEAS_TOL)
        r = np.where(inside.all(axis=-1), 0.0, np.inf)
    return float(r) if X.ndim == 1 else r


def prox_r(p: ProblemSpec, x, step) -> np.ndarray:
    """Proximal map of r with the given step: argmin_y r(y) + ||y - x||^2 / (2 step).

    Elementwise, so x may be a stack of points with step broadcast against it.
    """
    if not np.all(np.asarray(step) > 0):
        raise ValueError("step must be > 0")
    x = np.asarray(x, dtype=float)
    reg = p.reg
    if reg.kind == "zero":
        return x.copy()
    if reg.kind == "l1":
        thr = step * reg.weight
        return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)
    return np.clip(x, reg.lo, reg.hi)


def hessian_bound(p: ProblemSpec, i: int) -> np.ndarray:
    """Data-dependent upper bound H_i on agent i's Hessian.

    Exact for the quadratic loss; for classification losses it caps the scalar
    curvature at 1 (hinge) or 1/4 (logistic).
    """
    return p.loss.cap * (p.A[i].T @ p.A[i]) / p.n + p.loss.ridge * p.lam * np.eye(p.d)


def local_hessian(p: ProblemSpec, i: int) -> np.ndarray:
    """Exact Hessian of f_i for an exact-curvature loss (constant in x)."""
    if not p.loss.exact:
        raise ValueError(f"no exact Hessian for the {p.loss_kind} loss")
    return hessian_bound(p, i)


def hessian_bounds(p: ProblemSpec) -> np.ndarray:
    """All m Hessian bounds stacked (m, d, d); callers must not keep it on p."""
    H = np.empty((p.m, p.d, p.d))
    for i in range(p.m):
        H[i] = hessian_bound(p, i)
    return H


@dataclass(frozen=True)
class Curvature:
    """Small summaries of the Hessian bounds H_i: their mean H_bar, each
    agent's largest eigenvalue, and beta = max_i ||H_i - H_bar||_2."""

    H_bar: np.ndarray
    lmax: np.ndarray
    beta: float


def curvature(p: ProblemSpec) -> Curvature:
    """The curvature summaries of p, memoized on p."""
    if p._curvature is None:
        H = hessian_bounds(p)
        H_bar = H.mean(axis=0)
        lmax = np.linalg.eigvalsh(H)[:, -1]
        H -= H_bar
        beta = np.abs(np.linalg.eigvalsh(H)[:, [0, -1]]).max()
        p._curvature = Curvature(H_bar, lmax, float(beta))
    return p._curvature


def local_smoothness(p: ProblemSpec) -> np.ndarray:
    """Per-agent smoothness bounds (largest eigenvalue of H_i)."""
    return curvature(p).lmax


@dataclass(frozen=True)
class Constants:
    """Estimated problem constants: strong convexity, smoothness, similarity."""

    mu_hat: float
    L_hat: float
    Lmx_hat: float
    beta_hat: float

    @property
    def kappa_hat(self) -> float:
        return self.L_hat / self.mu_hat

    def __post_init__(self):
        if not (0 < self.mu_hat <= self.L_hat <= self.Lmx_hat * (1 + 1e-12)):
            raise ValueError(
                f"constants must satisfy 0 < mu <= L <= Lmx, got "
                f"({self.mu_hat}, {self.L_hat}, {self.Lmx_hat})"
            )
        if self.beta_hat < 0:
            raise ValueError("beta_hat must be >= 0")


def estimate_constants(p: ProblemSpec) -> Constants:
    """Estimate (mu, L, Lmx, beta) from the data.

    Exact-curvature losses use the eigenvalues of the average Hessian.
    Classification losses use the curvature-capped bounds H_i: mu_hat = lam,
    L_hat = mean_i lmax(H_i).  beta_hat = max_i ||H_i - mean_j H_j||_2.
    """
    curv = curvature(p)
    if p.loss.exact:
        w = np.linalg.eigvalsh(curv.H_bar)
        mu, L = w[0], w[-1]
    else:
        mu = p.lam
        L = curv.lmax.mean()
    if mu <= 1e-12 * max(1.0, L):
        raise DegenerateProblemError(
            "no strong convexity: lam = 0 with a rank-deficient average Hessian"
            if p.loss.exact
            else "no strong convexity: classification losses require lam > 0"
        )
    return Constants(float(mu), float(L), float(curv.lmax.max()), curv.beta)
